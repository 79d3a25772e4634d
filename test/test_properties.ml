(** Property-based tests of the paper's central guarantees over random
    databases, random queries and random configurations:

    - audit operators are no-ops (instrumented plan ≡ plain plan);
    - no false negatives (Claims 3.5/3.6): exact ⊆ hcn and exact ⊆ leaf;
    - monotonicity of placement: lineage ⊆ hcn ⊆ leaf;
    - Theorem 3.7: hcn = exact on select–join queries;
    - the optimizer (pushdown + pruning) preserves semantics;
    - every configuration agrees with the oracle configuration, offline
      lineage and the exact auditor included (both run in the drawn
      configuration);
    - the compiled engine agrees with the row engine under Strict plan
      verification and with certified probe elision off or on;
    - ternary-logic partitioning (Rigger & Su, OOPSLA 2020): a
      select–join query's rows and ACCESSED evidence split exactly
      across [p], [NOT p] and [p IS NULL];
    - the compiled engine agrees with the row engine under drawn fault
      plans: same rows or error, fired points, evidence and alarms.

    Each case draws one of the 24 {!Db.Config.t} values (engine × storage
    × elision × verify), so one run checks the guarantees across the
    whole configuration space; a failing case shrinks its configuration
    toward {!Db.Config.default}.

    Queries avoid NOT EXISTS / NOT IN so that exact ⊆ lineage also holds
    (negated subqueries can make *blocked* witnesses influential — see
    {!Audit_core.Provenance}). *)

open Storage
module E = Engine_core.Engine_error

(* --------------------------------------------------------------- *)
(* Random databases                                                 *)
(* --------------------------------------------------------------- *)

type dataset = {
  patients : (int * int * int option) list;  (** pid, age, zip *)
  visits : (int * int * int option) list;  (** vid, pid, cost *)
  with_index : bool;
      (** create a secondary index on visits.pid, letting the executor pick
          index-nested-loop plans for some generated queries *)
}

let gen_dataset =
  QCheck.Gen.(
    let* npat = int_range 0 12 in
    let* ages = list_repeat npat (int_range 0 9) in
    (* zip and cost are NULL now and then, so predicates meet 3VL *)
    let* zips = list_repeat npat (opt ~ratio:0.85 (int_range 0 2)) in
    let patients = List.mapi (fun i (a, z) -> (i + 1, a, z)) (List.combine ages zips) in
    let* nvis = int_range 0 18 in
    let* pids = list_repeat nvis (int_range 1 (max 1 (npat + 2))) in
    let* costs = list_repeat nvis (opt ~ratio:0.85 (int_range 0 9)) in
    let visits = List.mapi (fun i (p, c) -> (i + 1, p, c)) (List.combine pids costs) in
    let* with_index = bool in
    return { patients; visits; with_index })

(* Every test database carries the trigger, so the statement path
   ([Db.Database.exec]) instruments audit_pat; the plan-level helpers pick
   their audits explicitly and are unaffected by it. *)
let build_db (config : Db.Config.t) (d : dataset) =
  let db = Fixtures.create ~config:(Fixtures.at_least_warn config) () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE patients (pid INT PRIMARY KEY, age INT, zip INT)";
  e "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, cost INT)";
  let cell = function Some n -> string_of_int n | None -> "NULL" in
  List.iter
    (fun (p, a, z) ->
      e (Printf.sprintf "INSERT INTO patients VALUES (%d,%d,%s)" p a (cell z)))
    d.patients;
  List.iter
    (fun (v, p, c) ->
      e (Printf.sprintf "INSERT INTO visits VALUES (%d,%d,%s)" v p (cell c)))
    d.visits;
  if d.with_index then e "CREATE INDEX visits_pid ON visits (pid)";
  e
    "CREATE AUDIT EXPRESSION audit_pat AS SELECT * FROM patients FOR \
     SENSITIVE TABLE patients, PARTITION BY pid";
  e "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'";
  db

(* --------------------------------------------------------------- *)
(* Random configurations                                            *)
(* --------------------------------------------------------------- *)

let gen_config = QCheck.Gen.oneofl Fixtures.all_configs

(* Shrink one axis at a time back to its default value, so a failure
   reports the fewest non-default axes that still fail. *)
let shrink_config (c : Db.Config.t) yield =
  let d = Db.Config.default in
  if c.exec <> d.exec then yield { c with exec = d.exec };
  if c.storage <> d.storage then yield { c with storage = d.storage };
  if c.elision <> d.elision then yield { c with elision = d.elision };
  if c.verify <> d.verify then yield { c with verify = d.verify }

(* --------------------------------------------------------------- *)
(* Random queries                                                   *)
(* --------------------------------------------------------------- *)

(* A select–join query: FROM and WHERE are kept apart so the
   partitioning property can conjoin a predicate to the WHERE. *)
type sj = { join : bool; from : string; where : string }

let sj_sql q = Printf.sprintf "SELECT p.pid, p.age FROM %s WHERE %s" q.from q.where

let gen_sj =
  QCheck.Gen.(
    let* join = bool in
    let* k1 = int_range 0 9 in
    let* k2 = int_range 0 9 in
    let* op1 = oneofl [ ">"; "<"; "=" ] in
    let* op2 = oneofl [ ">"; "<="; "<>" ] in
    let age = Printf.sprintf "p.age %s %d" op1 k1 in
    return
      (if join then
         {
           join;
           from = "patients p, visits v";
           where = Printf.sprintf "p.pid = v.pid AND v.cost %s %d AND %s" op2 k2 age;
         }
       else { join; from = "patients p"; where = age }))

type qshape = Sj | Agg | Topk | Dist | Sub | Un

(* (sql, Some sj) for the select–join shape, (sql, None) otherwise. *)
let gen_query =
  QCheck.Gen.(
    let* shape = oneofl [ Sj; Sj; Agg; Topk; Dist; Sub; Un ] in
    let* q = gen_sj in
    let* k1 = int_range 0 9 in
    let* k2 = int_range 0 9 in
    let* op1 = oneofl [ ">"; "<"; "=" ] in
    let* op2 = oneofl [ ">"; "<="; "<>" ] in
    let* desc = bool in
    let* topn = int_range 1 4 in
    let where c =
      if q.join then
        Printf.sprintf "p.pid = v.pid AND v.cost %s %d AND %s" op2 k2 c
      else c
    in
    let age = Printf.sprintf "p.age %s %d" op1 k1 in
    return
      (match shape with
      | Sj -> (sj_sql q, Some q)
      | Agg ->
        ( Printf.sprintf
            "SELECT p.zip, count(*), sum(p.age) FROM %s WHERE %s GROUP BY \
             p.zip HAVING count(*) > 1"
            q.from (where age),
          None )
      | Topk ->
        ( Printf.sprintf
            "SELECT TOP %d p.pid FROM %s WHERE %s ORDER BY p.age %s, p.pid"
            topn q.from
            (where (Printf.sprintf "p.zip <= %d" (k1 mod 3)))
            (if desc then "DESC" else "ASC"),
          None )
      | Dist ->
        ( Printf.sprintf "SELECT DISTINCT p.zip FROM %s WHERE %s" q.from
            (where age),
          None )
      | Sub ->
        ( Printf.sprintf
            "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM \
             visits v WHERE v.pid = p.pid AND v.cost %s %d) AND %s"
            op2 k2 age,
          None )
      | Un ->
        let kw = if desc then "UNION ALL" else "UNION" in
        ( Printf.sprintf
            "SELECT p.pid, p.zip FROM patients p WHERE %s %s SELECT p.pid, \
             p.age FROM patients p WHERE p.zip <= %d"
            age kw (k2 mod 3),
          None )))

let print_case (d, sql, c) =
  Printf.sprintf "patients=%d visits=%d index=%b %s\n%s"
    (List.length d.patients) (List.length d.visits) d.with_index
    (Fixtures.string_of_config c) sql

(* A case is a dataset, a query and a configuration; only the
   configuration shrinks. *)
let arb_case =
  QCheck.make
    ~print:(fun (d, (sql, _), c) -> print_case (d, sql, c))
    ~shrink:(fun (d, q, c) yield -> shrink_config c (fun c -> yield (d, q, c)))
    QCheck.Gen.(triple gen_dataset gen_query gen_config)

(* --------------------------------------------------------------- *)
(* Property bodies                                                  *)
(* --------------------------------------------------------------- *)

let sorted rows = List.sort Tuple.compare rows

let run_plain db sql =
  sorted (Db.Database.run_plan db (Db.Database.prepare_sql db ~audits:[] sql))

(* The full statement path — placement under [h], elision, verification,
   the session's engine, triggers — returning sorted rows and audit_pat's
   ACCESSED set. *)
let run_exec db h sql =
  Db.Database.set_heuristic db h;
  let rows =
    match Db.Database.exec db sql with
    | Db.Database.Rows { rows; _ } -> sorted rows
    | r -> [ [| Value.Str (Db.Database.result_to_string r) |] ]
  in
  ( rows,
    Option.value ~default:[]
      (List.assoc_opt "audit_pat" (Db.Database.last_accessed db)) )

let prop_noop =
  QCheck.Test.make ~count:120 ~name:"audit operators are no-ops" arb_case
    (fun (d, (sql, _), c) ->
      let db = build_db c d in
      let base = run_plain db sql in
      List.for_all
        (fun h -> fst (run_exec db h sql) = base)
        Audit_core.Placement.[ Leaf; Hcn; Highest ])

let prop_no_false_negatives =
  QCheck.Test.make ~count:100 ~name:"no false negatives (exact subset hcn/leaf)"
    arb_case (fun (d, (sql, _), c) ->
      let db = build_db c d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      let hcn = snd (run_exec db Audit_core.Placement.Hcn sql) in
      let leaf = snd (run_exec db Audit_core.Placement.Leaf sql) in
      Fixtures.subset exact hcn && Fixtures.subset exact leaf)

let prop_placement_monotone =
  QCheck.Test.make ~count:100 ~name:"lineage subset hcn subset leaf" arb_case
    (fun (d, (sql, _), c) ->
      let db = build_db c d in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_pat" sql in
      let hcn =
        Fixtures.audit_ids db ~audit:"audit_pat"
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      let leaf =
        Fixtures.audit_ids db ~audit:"audit_pat"
          ~heuristic:Audit_core.Placement.Leaf sql
      in
      Fixtures.subset lineage hcn && Fixtures.subset hcn leaf)

let prop_exact_subset_lineage =
  QCheck.Test.make ~count:100 ~name:"exact subset lineage (no negated subqueries)"
    arb_case (fun (d, (sql, _), c) ->
      let db = build_db c d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_pat" sql in
      Fixtures.subset exact lineage)

let prop_sj_exact =
  QCheck.Test.make ~count:120 ~name:"Theorem 3.7: hcn exact on SJ queries"
    arb_case (fun (d, (sql, sj), c) ->
      QCheck.assume (sj <> None);
      let db = build_db c d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      exact = snd (run_exec db Audit_core.Placement.Hcn sql))

let prop_optimizer_equivalence =
  QCheck.Test.make ~count:120 ~name:"optimize+prune preserves results" arb_case
    (fun (d, (sql, _), c) ->
      let db = build_db c d in
      let catalog = Db.Database.catalog db in
      let raw = Plan.Binder.query catalog (Sql.Parser.query sql) in
      let opt =
        Plan.Optimizer.prune (Plan.Optimizer.logical_optimize ~catalog raw)
      in
      let ctx = Db.Database.context db in
      Exec.Exec_ctx.reset_query_state ctx;
      let a =
        sorted (Exec.Executor.run_list ctx (Db.Database.physical db raw))
      in
      Exec.Exec_ctx.reset_query_state ctx;
      let b =
        sorted (Exec.Executor.run_list ctx (Db.Database.physical db opt))
      in
      a = b)

(* One statement through the full path on a fresh database built in
   [config]: its rows in order, ACCESSED sets, NOTIFY output and offline
   lineage, or the Verify error that refused its plan. *)
let exec_outcome config d sql =
  let db = build_db config d in
  match Db.Database.exec db sql with
  | r ->
    let rows =
      match r with
      | Db.Database.Rows { rows; _ } -> rows
      | r -> [ [| Value.Str (Db.Database.result_to_string r) |] ]
    in
    let accessed = Db.Database.last_accessed db in
    let notes = Db.Database.notifications db in
    Ok
      ( rows,
        accessed,
        notes,
        Fixtures.lineage_ids db ~audit:"audit_pat" sql,
        Fixtures.exact_ids db ~audit:"audit_pat" sql )
  | exception E.Error (E.Verify m) -> Error m

(* The differential oracle over the configuration space: the row engine
   over heap tables with every probe kept, at the drawn verify mode. Any
   configuration must return its rows in the same order, the same
   ACCESSED sets, the same NOTIFY output through the full statement path
   and the same offline lineage and exact accessed sets — or refuse the
   plan with the same Verify error. Each side gets its own database, so
   the two runs are independent. *)
let prop_config_oracle =
  QCheck.Test.make ~count:200 ~name:"every config agrees with the oracle"
    arb_case (fun (d, (sql, _), c) ->
      exec_outcome { Db.Config.default with verify = c.verify } d sql
      = exec_outcome c d sql)

(* The plan verifier's verdict cannot depend on the engine, and Strict
   execution must behave identically: both engines succeed with the same
   rows, or both refuse with the same Verify error. Storage and elision
   come from the drawn configuration. *)
let prop_verify_both_modes =
  QCheck.Test.make ~count:60 ~name:"Plan_verify parity across exec modes"
    arb_case (fun (d, (sql, _), c) ->
      let run exec = exec_outcome { c with exec; verify = Strict } d sql in
      run `Row = run `Compiled)

(* The compiled engine must agree with the row oracle through the full
   statement pipeline — instrumented plans, trigger firing, NOTIFY —
   whether certified probe elision is off or on. Storage and verification
   come from the drawn configuration. *)
let prop_compiled_elision_parity =
  QCheck.Test.make ~count:80
    ~name:"compiled = row with elision off and certified" arb_case
    (fun (d, (sql, _), c) ->
      List.for_all
        (fun elision ->
          let run exec = exec_outcome { c with exec; elision } d sql in
          run `Row = run `Compiled)
        [ Db.Config.Elide_off; Db.Config.Elide_certified ])

(* --------------------------------------------------------------- *)
(* Ternary-logic partitioning on select–join queries                *)
(* --------------------------------------------------------------- *)

(* A partition predicate over patients (and, for a join, visits)
   columns. zip and cost hold NULLs, and the CASE form is NULL on one zip
   value too, so the [IS NULL] partition is often non-empty. *)
let gen_partition ~join =
  let cols =
    if join then [ "p.age"; "p.zip"; "v.cost"; "v.pid" ]
    else [ "p.age"; "p.zip"; "p.pid" ]
  in
  QCheck.Gen.(
    let* col = oneofl cols in
    let* op = oneofl [ ">"; "<="; "="; "<>" ] in
    let* k = int_range 0 9 in
    let* nulls = oneofl [ None; Some 0; Some 1; Some 2 ] in
    let lhs =
      match nulls with
      | None -> col
      | Some z -> Printf.sprintf "CASE WHEN p.zip = %d THEN NULL ELSE %s END" z col
    in
    return (Printf.sprintf "%s %s %d" lhs op k))

let arb_tlp =
  QCheck.make
    ~print:(fun (d, (q, p), c) ->
      print_case (d, Printf.sprintf "%s\npartition: %s" (sj_sql q) p, c))
    ~shrink:(fun (d, qp, c) yield -> shrink_config c (fun c -> yield (d, qp, c)))
    QCheck.Gen.(
      triple gen_dataset
        (let* q = gen_sj in
         let* p = gen_partition ~join:q.join in
         return (q, p))
        gen_config)

(* Q's rows are the multiset union of Q AND p, Q AND NOT p and
   Q AND (p) IS NULL; by Theorem 3.7 hcn's ACCESSED on these queries is
   exact, so Q's evidence is the union of the partitions' evidence. *)
let prop_tlp =
  QCheck.Test.make ~count:300
    ~name:"TLP: SJ rows and ACCESSED split over p" arb_tlp
    (fun (d, (q, p), c) ->
      let db = build_db c d in
      let run where =
        run_exec db Audit_core.Placement.Hcn (sj_sql { q with where })
      in
      let rows, accessed = run q.where in
      let parts =
        List.map
          (fun fmt -> run (Printf.sprintf fmt q.where p))
          [ "%s AND (%s)"; "%s AND NOT (%s)"; "%s AND (%s) IS NULL" ]
      in
      rows = sorted (List.concat_map fst parts)
      && accessed
         = List.sort_uniq Value.compare_total (List.concat_map snd parts))

(* --------------------------------------------------------------- *)
(* Compiled engine: chunk boundaries                                *)
(* --------------------------------------------------------------- *)

(* Tables whose cardinalities straddle the compiled engine's scan chunk:
   one short chunk, one full chunk, a full chunk plus a 1-row tail, and
   two full chunks. Columns [a]/[b] carry periodic NULLs so predicates
   exercise 3VL at the boundaries. *)
let boundary_sizes =
  let c = Exec.Compiled_exec.scan_chunk in
  [ 1; c - 1; c; c + 1; 2 * c ]

let boundary_dbs =
  lazy
    (List.map
       (fun n ->
         let db =
           Fixtures.create
             ~config:{ (Fixtures.at_least_warn Fixtures.config) with exec = `Row }
             ()
         in
         let e sql = ignore (Db.Database.exec db sql) in
         e "CREATE TABLE big (k INT PRIMARY KEY, a INT, b INT)";
         let cell k p m = if k mod p = 0 then "NULL" else string_of_int (k mod m) in
         let rec insert lo =
           if lo <= n then begin
             let hi = min n (lo + 255) in
             let vals =
               List.init (hi - lo + 1) (fun i ->
                   let k = lo + i in
                   Printf.sprintf "(%d,%s,%s)" k (cell k 7 13) (cell k 11 17))
             in
             e ("INSERT INTO big VALUES " ^ String.concat "," vals);
             insert (hi + 1)
           end
         in
         insert 1;
         e
           "CREATE AUDIT EXPRESSION audit_big AS SELECT * FROM big FOR \
            SENSITIVE TABLE big, PARTITION BY k";
         (n, db))
       boundary_sizes)

let gen_boundary_query =
  QCheck.Gen.(
    let* size_i = int_range 0 (List.length boundary_sizes - 1) in
    let* c1 = int_range 0 16 in
    let* c2 = int_range 0 16 in
    let* op = oneofl [ ">"; "<"; "="; "<>" ] in
    let* shape = int_range 0 3 in
    let pred =
      match shape with
      | 0 -> Printf.sprintf "a %s %d" op c1
      | 1 -> Printf.sprintf "a IS NULL OR b %s %d" op c1
      | 2 -> Printf.sprintf "NOT (a %s %d AND b <> %d)" op c1 c2
      | _ -> Printf.sprintf "a + b %s %d" op (c1 + c2)
    in
    let sql =
      if shape = 3 then
        Printf.sprintf "SELECT k, a + b FROM big WHERE %s" pred
      else Printf.sprintf "SELECT k, a, b FROM big WHERE %s" pred
    in
    return (size_i, sql))

let arb_boundary =
  QCheck.make
    ~print:(fun (i, sql) ->
      Printf.sprintf "size=%d\n%s" (List.nth boundary_sizes i) sql)
    gen_boundary_query

(* Compiled ≡ row for compiled predicates/projections over 3VL/NULL
   corners when the table size sits at a chunk boundary — results (in
   order) and ACCESSED sets must be identical. *)
let prop_chunk_boundary =
  QCheck.Test.make ~count:60 ~name:"compiled = row at chunk boundaries (3VL)"
    arb_boundary (fun (size_i, sql) ->
      let _, db = List.nth (Lazy.force boundary_dbs) size_i in
      let run mode =
        Db.Database.set_exec_mode db mode;
        let plan =
          Db.Database.prepare_sql db ~audits:[ "audit_big" ]
            ~heuristic:Audit_core.Placement.Hcn sql
        in
        let rows = Db.Database.run_plan db plan in
        ( rows,
          Exec.Exec_ctx.accessed_list
            (Db.Database.context db)
            ~audit_name:"audit_big" )
      in
      let oracle = run `Row in
      oracle = run `Compiled)

(* --------------------------------------------------------------- *)
(* Compiled engine: cancellation, fault sites                       *)
(* --------------------------------------------------------------- *)

(* Cancellation parity: with a random row/memory budget (or an
   already-expired deadline), the compiled engine either completes with
   the row engine's rows or parks mid-pipeline at exactly the same
   point — same cancellation reason, same rows_scanned /
   tuples_materialized counters, same partial ACCESSED set. Storage,
   elision and verification come from the drawn configuration. *)
let arb_cancel_case =
  QCheck.make
    ~print:(fun ((d, (sql, _), c), (kind, n)) ->
      Printf.sprintf "%s=%d %s"
        (match kind with
        | `Rows -> "row-budget"
        | `Mem -> "mem-budget"
        | `Deadline -> "timeout")
        n
        (print_case (d, sql, c)))
    ~shrink:(fun ((d, q, c), budget) yield ->
      shrink_config c (fun c -> yield ((d, q, c), budget)))
    QCheck.Gen.(
      pair
        (triple gen_dataset gen_query gen_config)
        (pair (oneofl [ `Rows; `Rows; `Mem; `Mem; `Deadline ]) (int_range 1 8)))

let prop_compiled_cancel_parity =
  QCheck.Test.make ~count:120
    ~name:"compiled = row under budget/timeout cancellation" arb_cancel_case
    (fun ((d, (sql, _), c), (kind, n)) ->
      let run exec =
        let db = build_db { c with exec } d in
        (match kind with
        | `Rows -> Db.Database.set_row_budget db (Some n)
        | `Mem -> Db.Database.set_mem_budget db (Some n)
        (* A negative timeout puts the deadline in the past before the
           query starts, so cancellation lands deterministically on the
           engine's first periodic clock check — a small positive value
           would race the microsecond clock granularity and cancel at a
           run-dependent tick. *)
        | `Deadline -> Db.Database.set_timeout db (Some (-1.0)));
        let ctx = Db.Database.context db in
        let outcome =
          match Db.Database.exec db sql with
          | Db.Database.Rows { rows; _ } -> Ok rows
          | r -> Ok [ [| Value.Str (Db.Database.result_to_string r) |] ]
          | exception E.Error (E.Cancelled { reason; _ }) -> Error reason
        in
        ( outcome,
          ctx.Exec.Exec_ctx.rows_scanned,
          ctx.Exec.Exec_ctx.tuples_materialized,
          Exec.Exec_ctx.accessed_list ctx ~audit_name:"audit_pat" )
      in
      run `Row = run `Compiled)

(* An armed fault kit compiles a fault site into every node of the
   compiled engine's pipelines, firing in the row engine's getNext order,
   so an [Op_next "*"] point at the first getNext fires at the same
   operator in both modes: identical injected-fault error and identical
   fired-point log. A pipeline without fault sites would never call
   [on_get_next] and would succeed — detectably diverging from the row
   oracle. Storage, elision and verification come from the drawn
   configuration. *)
let prop_compiled_fault_fallback =
  QCheck.Test.make ~count:60
    ~name:"armed Faultkit forces the compiled engine's fallback" arb_case
    (fun (d, (sql, _), c) ->
      let run exec =
        let db = build_db { c with exec } d in
        let kit = Db.Database.faults db in
        Engine_core.Faultkit.arm kit
          [ Engine_core.Faultkit.Op_next { op = "*"; at = 1 } ];
        let outcome =
          match Db.Database.exec db sql with
          | Db.Database.Rows { rows; _ } -> Ok (sorted rows)
          | r -> Ok [ [| Value.Str (Db.Database.result_to_string r) |] ]
          | exception Engine_core.Faultkit.Fault_injected m -> Error m
          | exception E.Error (E.Fault m) -> Error m
        in
        (outcome, Engine_core.Faultkit.fired kit)
      in
      let row = run `Row and compiled = run `Compiled in
      row = compiled
      && (match fst compiled with Error _ -> true | Ok _ -> false))

(* The operator labels a drawn fault plan picks from: the fault matrix's
   five, the early-exit and correlated operators, and two blocking ones. *)
let fault_ops =
  [
    "Scan"; "Filter"; "Join"; "Project"; "Audit"; "Limit"; "IndexNLJoin";
    "Apply"; "Sort"; "HashAgg";
  ]

(* The drawn query shapes plus the operators with early exit: LIMIT over
   a scan, a filter and a join, and correlated Applies (a non-equi
   EXISTS, NOT EXISTS and a scalar subquery; the equi EXISTS of [Sub]
   decorrelates to a semi-join). With the visits index a join may run as
   an index-NL join. *)
let gen_fault_query =
  QCheck.Gen.(
    let* k = int_range 0 9 in
    let* n = int_range 0 6 in
    frequency
      [
        (3, map fst gen_query);
        ( 1,
          oneofl
            [
              Printf.sprintf "SELECT p.pid, p.age FROM patients p LIMIT %d" n;
              Printf.sprintf
                "SELECT p.pid FROM patients p WHERE p.age > %d LIMIT %d" k n;
              Printf.sprintf
                "SELECT p.pid, v.vid FROM patients p, visits v WHERE p.pid = \
                 v.pid LIMIT %d"
                n;
            ] );
        ( 1,
          oneofl
            [
              Printf.sprintf
                "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM \
                 visits v WHERE v.pid < p.pid AND v.cost > %d)"
                k;
              Printf.sprintf
                "SELECT p.pid FROM patients p WHERE NOT EXISTS (SELECT 1 FROM \
                 visits v WHERE v.pid = p.pid AND v.cost <> %d)"
                k;
              Printf.sprintf
                "SELECT p.pid, (SELECT count(*) FROM visits v WHERE v.pid <= \
                 p.pid AND v.cost > %d) FROM patients p"
                k;
            ] );
      ])

(* A case adds a fault seed to the dataset, query and configuration;
   seed 0 arms no fault. The configuration and the seed both shrink, the
   seed toward 0. *)
let arb_fault_case =
  QCheck.make
    ~print:(fun ((d, sql, c), seed) ->
      Printf.sprintf "fault seed %d: %s" seed (print_case (d, sql, c)))
    ~shrink:(fun ((d, sql, c), seed) yield ->
      shrink_config c (fun c -> yield ((d, sql, c), seed));
      QCheck.Shrink.int seed (fun seed -> yield ((d, sql, c), seed)))
    QCheck.Gen.(
      pair (triple gen_dataset gen_fault_query gen_config) (int_range 0 400))

(* One statement on a fresh database with [Faultkit.random_plan] armed
   and evidence deferred: rows or the typed error, the fired points, the
   evidence records, the (partial) ACCESSED set, alarms and NOTIFY
   output. *)
let fault_outcome config d sql seed =
  let db = build_db config d in
  Db.Database.set_deferred_evidence db true;
  let kit = Db.Database.faults db in
  Engine_core.Faultkit.arm kit
    (Engine_core.Faultkit.random_plan ~seed ~ops:fault_ops);
  let outcome =
    match Db.Database.exec db sql with
    | Db.Database.Rows { rows; _ } -> Ok rows
    | r -> Ok [ [| Value.Str (Db.Database.result_to_string r) |] ]
    | exception E.Error e -> Error (E.to_string e)
    | exception Db.Database.Db_error m -> Error m
  in
  ( outcome,
    Engine_core.Faultkit.fired kit,
    List.map Audit_log.Wal.record_to_string
      (Db.Database.take_pending_evidence db),
    Exec.Exec_ctx.accessed_list (Db.Database.context db)
      ~audit_name:"audit_pat",
    (Db.Database.alarms db, Db.Database.notifications db) )

let prop_compiled_fault_plans =
  QCheck.Test.make ~count:200 ~name:"compiled = row under drawn fault plans"
    arb_fault_case (fun ((d, sql, c), seed) ->
      fault_outcome { c with exec = `Row } d sql seed
      = fault_outcome { c with exec = `Compiled } d sql seed)

(* --------------------------------------------------------------- *)
(* The statement-shape cache                                        *)
(* --------------------------------------------------------------- *)

(* What changes between a statement and a second one of its shape. *)
type between =
  | Nothing
  | Index  (** CREATE INDEX on a scanned table *)
  | Drop_index  (** DROP INDEX of every index on visits *)
  | Recreate of bool
      (** DROP and CREATE visits with the same schema and rows, with its
          pid index or without *)
  | Insert  (** one row more in patients *)
  | Audit of int  (** DROP and CREATE the trigger and audit expression *)
  | Elide  (** flip certified elision *)
  | Verify of Db.Config.verify_mode
  | Heuristic of Audit_core.Placement.heuristic

let gen_between =
  QCheck.Gen.(
    oneof
      [
        return Nothing;
        return Index;
        return Drop_index;
        map (fun index -> Recreate index) bool;
        return Insert;
        map (fun k -> Audit k) (int_range 0 9);
        return Elide;
        map (fun v -> Verify v) (oneofl Db.Config.[ Off; Warn; Strict ]);
        map (fun h -> Heuristic h)
          (oneofl Audit_core.Placement.[ Leaf; Hcn; Highest ]);
      ])

let string_of_between = function
  | Nothing -> "nothing"
  | Index -> "CREATE INDEX"
  | Drop_index -> "DROP INDEX"
  | Recreate index ->
    "re-create visits" ^ if index then " with its index" else " without an index"
  | Insert -> "INSERT"
  | Audit k -> Printf.sprintf "re-create audit_pat (age > %d)" k
  | Elide -> "\\elide flip"
  | Verify v -> "\\verify mode " ^ Db.Config.verify_to_string v
  | Heuristic h -> "\\heuristic " ^ Audit_core.Placement.heuristic_name h

let apply_between db between =
  let e sql = ignore (Db.Database.exec db sql) in
  let visits () = Catalog.find (Db.Database.catalog db) "visits" in
  match between with
  | Nothing -> ()
  | Index -> e "CREATE INDEX visits_cost ON visits (cost)"
  | Drop_index ->
    List.iter
      (fun (name, _) -> e (Printf.sprintf "DROP INDEX %s ON visits" name))
      (Table.index_names (visits ()))
  | Recreate index ->
    let rows = Table.to_list (visits ()) in
    e "DROP TABLE visits";
    e "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, cost INT)";
    List.iter
      (fun row ->
        e
          (Printf.sprintf "INSERT INTO visits VALUES (%s)"
             (String.concat ", "
                (List.map Value.to_sql_literal (Array.to_list row)))))
      rows;
    if index then e "CREATE INDEX visits_pid ON visits (pid)"
  | Insert ->
    e "INSERT INTO patients VALUES (100, 5, 1)"
  | Audit k ->
    List.iter e
      [
        "DROP TRIGGER w";
        "DROP AUDIT EXPRESSION audit_pat";
        Printf.sprintf
          "CREATE AUDIT EXPRESSION audit_pat AS SELECT * FROM patients WHERE \
           age > %d FOR SENSITIVE TABLE patients, PARTITION BY pid"
          k;
        "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'";
      ]
  | Elide ->
    Db.Database.set_elision_mode db
      (match Db.Database.elision_mode db with
      | Db.Config.Elide_off -> Db.Config.Elide_certified
      | Db.Config.Elide_certified -> Db.Config.Elide_off)
  | Verify v -> Db.Database.set_verify_plans db v
  | Heuristic h -> Db.Database.set_heuristic db h

(* One query shape over integer literals: [sql lits] is the statement
   for one set of literals, drawn by [lits]. *)
let gen_shape =
  QCheck.Gen.(
    let* shape = int_range 0 7 in
    let* join = bool in
    let* op1 = oneofl [ ">"; "<"; "=" ] in
    let* op2 = oneofl [ ">"; "<="; "<>" ] in
    let* desc = bool in
    let* topn = int_range 1 4 in
    let lits = triple (int_range 0 9) (int_range 0 9) (int_range 0 2) in
    let sql (a, b, c) =
      let from = if join then "patients p, visits v" else "patients p" in
      let where cond =
        if join then
          Printf.sprintf "p.pid = v.pid AND v.cost %s %d AND %s" op2 b cond
        else cond
      in
      let age = Printf.sprintf "p.age %s %d" op1 a in
      match shape with
      | 0 -> Printf.sprintf "SELECT p.pid, p.age FROM %s WHERE %s" from (where age)
      | 1 ->
        Printf.sprintf
          "SELECT p.zip, count(*), sum(p.age) FROM %s WHERE %s GROUP BY \
           p.zip HAVING count(*) > %d"
          from (where age) c
      | 2 ->
        Printf.sprintf "SELECT TOP %d p.pid FROM %s WHERE %s ORDER BY p.age %s, p.pid"
          topn from
          (where (Printf.sprintf "p.zip <= %d" c))
          (if desc then "DESC" else "ASC")
      | 3 -> Printf.sprintf "SELECT DISTINCT p.zip FROM %s WHERE %s" from (where age)
      | 4 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM visits v \
           WHERE v.pid = p.pid AND v.cost %s %d) AND %s"
          op2 b age
      | 5 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE p.zip NOT IN (SELECT v.cost \
           FROM visits v WHERE v.cost %s %d) AND %s"
          op2 b age
      | 6 ->
        Printf.sprintf
          "SELECT p.pid, p.zip FROM patients p WHERE %s %s SELECT p.pid, \
           p.age FROM patients p WHERE p.zip <= %d"
          age (if desc then "UNION ALL" else "UNION") c
      | _ ->
        Printf.sprintf "SELECT p.pid + %d, 'k%d' FROM %s WHERE %s" b c from
          (where age)
    in
    return (sql, lits))

(* One query shape with two sets of integer literals. *)
let gen_shape_pair =
  QCheck.Gen.(
    let* sql, lits = gen_shape in
    let* l1 = lits in
    let* l2 = lits in
    return (sql l1, sql l2))

(* The cached [prepare] against the uncached oracle, field by field, and
   the statement's rows, ACCESSED and trigger firings against a fresh
   session's (whose shapes are all new). *)
let shape_outcome a b sql =
  let module D = Db.Database in
  let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let fields (p : D.prepared) =
    ( (p.plan, p.lowered, p.phys),
      (Lazy.force p.decisions, p.certificates, p.heuristic, p.specs),
      D.violations p )
  in
  let cached = attempt (fun () -> fields (D.prepare_sql a sql)) in
  let oracle = attempt (fun () -> fields (D.prepare_plan a (D.plan_sql a sql))) in
  let run db =
    D.clear_notifications db;
    let rows =
      attempt (fun () ->
          match D.exec db sql with
          | D.Rows { rows; _ } -> rows
          | r -> [ [| Value.Str (D.result_to_string r) |] ])
    in
    (rows, D.last_accessed db, D.notifications db)
  in
  (cached = oracle, run a = run (D.create_session b))

let prop_shape_cache =
  QCheck.Test.make ~count:300
    ~name:"cached prepare = uncached oracle, across invalidations"
    (QCheck.make
       ~print:(fun ((d, (s1, s2), c), between) ->
         Printf.sprintf "%s\nthen %s, then\n%s"
           (print_case (d, s1, c)) (string_of_between between) s2)
       ~shrink:(fun ((d, q, c), between) yield ->
         shrink_config c (fun c -> yield ((d, q, c), between)))
       QCheck.Gen.(pair (triple gen_dataset gen_shape_pair gen_config) gen_between))
    (fun ((d, (s1, s2), c), between) ->
      let a = build_db c d and b = build_db c d in
      let first = shape_outcome a b s1 in
      apply_between a between;
      apply_between b between;
      (* the first statement again, then its sibling: a hit or a rebuild *)
      let again = shape_outcome a b s1 in
      let second = shape_outcome a b s2 in
      first = (true, true) && again = (true, true) && second = (true, true))

(* --------------------------------------------------------------- *)
(* Per-shape independence verdicts                                  *)
(* --------------------------------------------------------------- *)

(* Shapes whose literals may or may not decide a probe's verdict: the
   [gen_shape] family, and disjunctions, negations, IN lists,
   contradictions and literals that reach patients through an
   equi-join. IN-list members are part of a shape, so they are drawn
   once per shape. *)
let gen_scope_shape =
  QCheck.Gen.(
    let* members = list_size (int_range 1 3) (int_range 0 9) in
    let* op = oneofl [ "="; "<"; ">"; "<>"; "<="; ">=" ] in
    let* family = int_range 0 9 in
    let in_list = String.concat ", " (List.map string_of_int members) in
    let sql (a, b, c) =
      match family with
      | 0 ->
        Printf.sprintf "SELECT p.pid FROM patients p WHERE p.age = %d OR p.age %s %d"
          a op b
      | 1 ->
        Printf.sprintf "SELECT p.pid FROM patients p WHERE p.age %s %d OR p.zip = %d"
          op a c
      | 2 ->
        Printf.sprintf "SELECT p.pid, p.zip FROM patients p WHERE NOT (p.age %s %d)"
          op a
      | 3 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE NOT (p.age = %d OR p.zip %s %d)" a
          op c
      | 4 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE p.age IN (%s) AND p.zip %s %d"
          in_list op c
      | 5 ->
        Printf.sprintf "SELECT p.pid FROM patients p WHERE p.age + %d %sIN (%s)" a
          (if b mod 2 = 0 then "NOT " else "")
          in_list
      | 6 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE p.age = %d AND p.age %s %d" a op b
      | 7 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p WHERE p.zip %s %d AND p.age > %d AND \
           p.age < %d"
          op c a b
      | 8 ->
        Printf.sprintf
          "SELECT p.pid FROM patients p, visits v WHERE p.age = v.cost AND \
           v.cost %s %d"
          op a
      | _ ->
        Printf.sprintf
          "SELECT p.pid, v.vid FROM patients p, visits v WHERE p.pid = v.pid \
           AND v.pid = %d AND p.pid %s %d"
          a op b
    in
    let lits = triple (int_range 0 9) (int_range 0 9) (int_range 0 2) in
    frequency [ (1, gen_shape); (2, return (sql, lits)) ])

(* What the audit expression requires of patients. *)
let gen_audit_where =
  QCheck.Gen.(
    oneof
      [
        return "";
        map (Printf.sprintf " WHERE age > %d") (int_range 0 9);
        map (Printf.sprintf " WHERE zip = %d") (int_range 0 2);
        map2 (Printf.sprintf " WHERE age = %d OR age = %d") (int_range 0 9)
          (int_range 0 9);
      ])

let recreate_audit db where =
  List.iter
    (fun sql -> ignore (Db.Database.exec db sql))
    [
      "DROP TRIGGER w";
      "DROP AUDIT EXPRESSION audit_pat";
      "CREATE AUDIT EXPRESSION audit_pat AS SELECT * FROM patients" ^ where
      ^ " FOR SENSITIVE TABLE patients, PARTITION BY pid";
      "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'";
    ]

(* The first statement builds its shape and the next one classifies it
   on the first hit. Every statement served by a shape classified as
   one verdict for all its literals (its decisions were never analysed)
   must be what the statement's own analysis makes of it: nothing
   certified, the same decisions once forced, the probes kept. *)
let prop_shape_scope =
  QCheck.Test.make ~count:300
    ~name:"a shape's one verdict = every filling's analysis"
    (QCheck.make
       ~print:(fun ((d, sqls, c), where) ->
         Printf.sprintf "audit_pat: patients%s\n%s" where
           (print_case
              ( d,
                String.concat "\n" sqls,
                { c with elision = Db.Config.Elide_certified } )))
       ~shrink:(fun ((d, sqls, c), where) yield ->
         shrink_config c (fun c -> yield ((d, sqls, c), where)))
       QCheck.Gen.(
         pair
           (triple gen_dataset
              (let* sql, lits = gen_scope_shape in
               map (List.map sql) (list_repeat 5 lits))
              gen_config)
           gen_audit_where))
    (fun ((d, sqls, c), where) ->
      let module D = Db.Database in
      let db = build_db { c with elision = Db.Config.Elide_certified } d in
      recreate_audit db where;
      ignore (D.prepare_sql db (List.hd sqls));
      List.for_all
        (fun sql ->
          let p = D.prepare_sql db sql in
          Lazy.is_val p.decisions
          ||
          let oracle = D.prepare_plan db (D.plan_sql db sql) in
          oracle.certificates = [] && p.certificates = []
          && p.phys = oracle.phys
          && Lazy.force p.decisions = Lazy.force oracle.decisions)
        sqls)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_noop;
      prop_no_false_negatives;
      prop_placement_monotone;
      prop_exact_subset_lineage;
      prop_sj_exact;
      prop_optimizer_equivalence;
      prop_chunk_boundary;
      prop_config_oracle;
      prop_verify_both_modes;
      prop_compiled_elision_parity;
      prop_tlp;
      prop_compiled_cancel_parity;
      prop_compiled_fault_fallback;
      prop_compiled_fault_plans;
      prop_shape_cache;
      prop_shape_scope;
    ]
