(** Property-based tests of the paper's central guarantees over random
    databases and random queries:

    - audit operators are no-ops (instrumented plan ≡ plain plan);
    - no false negatives (Claims 3.5/3.6): exact ⊆ hcn and exact ⊆ leaf;
    - monotonicity of placement: lineage ⊆ hcn ⊆ leaf;
    - Theorem 3.7: hcn = exact on select–join queries;
    - the optimizer (pushdown + pruning) preserves semantics.

    Queries avoid NOT EXISTS / NOT IN so that exact ⊆ lineage also holds
    (negated subqueries can make *blocked* witnesses influential — see
    {!Audit_core.Lineage}). *)

open Storage

(* --------------------------------------------------------------- *)
(* Random databases                                                 *)
(* --------------------------------------------------------------- *)

type dataset = {
  patients : (int * int * int) list;  (** pid, age, zip *)
  visits : (int * int * int) list;  (** vid, pid, cost *)
  with_index : bool;
      (** create a secondary index on visits.pid, letting the executor pick
          index-nested-loop plans for some generated queries *)
}

let gen_dataset =
  QCheck.Gen.(
    let* npat = int_range 0 12 in
    let* ages = list_repeat npat (int_range 0 9) in
    let* zips = list_repeat npat (int_range 0 2) in
    let patients = List.mapi (fun i (a, z) -> (i + 1, a, z)) (List.combine ages zips) in
    let* nvis = int_range 0 18 in
    let* pids = list_repeat nvis (int_range 1 (max 1 (npat + 2))) in
    let* costs = list_repeat nvis (int_range 0 9) in
    let visits = List.mapi (fun i (p, c) -> (i + 1, p, c)) (List.combine pids costs) in
    let* with_index = bool in
    return { patients; visits; with_index })

let build_db (d : dataset) =
  let db = Db.Database.create () in
  Db.Database.set_verify_plans db Db.Database.Warn;
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE patients (pid INT PRIMARY KEY, age INT, zip INT)";
  e "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, cost INT)";
  List.iter
    (fun (p, a, z) ->
      e (Printf.sprintf "INSERT INTO patients VALUES (%d,%d,%d)" p a z))
    d.patients;
  List.iter
    (fun (v, p, c) ->
      e (Printf.sprintf "INSERT INTO visits VALUES (%d,%d,%d)" v p c))
    d.visits;
  if d.with_index then e "CREATE INDEX visits_pid ON visits (pid)";
  e
    "CREATE AUDIT EXPRESSION audit_pat AS SELECT * FROM patients FOR \
     SENSITIVE TABLE patients, PARTITION BY pid";
  db

(* --------------------------------------------------------------- *)
(* Random queries                                                   *)
(* --------------------------------------------------------------- *)

type qshape = Sj | Agg | Topk | Dist | Sub | Un

let gen_query =
  QCheck.Gen.(
    let* shape = oneofl [ Sj; Sj; Agg; Topk; Dist; Sub; Un ] in
    let* join = bool in
    let* k1 = int_range 0 9 in
    let* k2 = int_range 0 9 in
    let* op1 = oneofl [ ">"; "<"; "=" ] in
    let* op2 = oneofl [ ">"; "<="; "<>" ] in
    let* desc = bool in
    let* topn = int_range 1 4 in
    let base_from, base_where =
      if join then
        ("patients p, visits v", Printf.sprintf "p.pid = v.pid AND v.cost %s %d AND " op2 k2)
      else ("patients p", "")
    in
    let where c = Printf.sprintf "%s%s" base_where c in
    let sql, is_sj =
      match shape with
      | Sj ->
        ( Printf.sprintf "SELECT p.pid, p.age FROM %s WHERE %s" base_from
            (where (Printf.sprintf "p.age %s %d" op1 k1)),
          true )
      | Agg ->
        ( Printf.sprintf
            "SELECT p.zip, count(*), sum(p.age) FROM %s WHERE %s GROUP BY \
             p.zip HAVING count(*) > 1"
            base_from
            (where (Printf.sprintf "p.age %s %d" op1 k1)),
          false )
      | Topk ->
        ( Printf.sprintf
            "SELECT TOP %d p.pid FROM %s WHERE %s ORDER BY p.age %s, p.pid"
            topn base_from
            (where (Printf.sprintf "p.zip <= %d" (k1 mod 3)))
            (if desc then "DESC" else "ASC"),
          false )
      | Dist ->
        ( Printf.sprintf "SELECT DISTINCT p.zip FROM %s WHERE %s" base_from
            (where (Printf.sprintf "p.age %s %d" op1 k1)),
          false )
      | Sub ->
        ( Printf.sprintf
            "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM \
             visits v WHERE v.pid = p.pid AND v.cost %s %d) AND p.age %s %d"
            op2 k2 op1 k1,
          false )
      | Un ->
        let kw = if desc then "UNION ALL" else "UNION" in
        ( Printf.sprintf
            "SELECT p.pid, p.zip FROM patients p WHERE p.age %s %d %s \
             SELECT p.pid, p.age FROM patients p WHERE p.zip <= %d"
            op1 k1 kw (k2 mod 3),
          false )
    in
    return (sql, is_sj))

let arb_case =
  QCheck.make
    ~print:(fun (d, (sql, _)) ->
      Printf.sprintf "patients=%d visits=%d index=%b\n%s"
        (List.length d.patients) (List.length d.visits) d.with_index sql)
    QCheck.Gen.(pair gen_dataset gen_query)

(* --------------------------------------------------------------- *)
(* Property bodies                                                  *)
(* --------------------------------------------------------------- *)

let sorted rows = List.sort Tuple.compare rows

let run_plain db sql =
  sorted (Db.Database.run_plan db (Db.Database.plan_sql db ~audits:[] sql))

let run_instr db h sql =
  sorted
    (Db.Database.run_plan db
       (Db.Database.plan_sql db ~audits:[ "audit_pat" ] ~heuristic:h sql))

let prop_noop =
  QCheck.Test.make ~count:120 ~name:"audit operators are no-ops" arb_case
    (fun (d, (sql, _)) ->
      let db = build_db d in
      let base = run_plain db sql in
      List.for_all
        (fun h -> run_instr db h sql = base)
        Audit_core.Placement.[ Leaf; Hcn; Highest ])

let prop_no_false_negatives =
  QCheck.Test.make ~count:100 ~name:"no false negatives (exact subset hcn/leaf)"
    arb_case (fun (d, (sql, _)) ->
      let db = build_db d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      let hcn =
        Fixtures.audit_ids db ~audit:"audit_pat"
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      let leaf =
        Fixtures.audit_ids db ~audit:"audit_pat"
          ~heuristic:Audit_core.Placement.Leaf sql
      in
      Fixtures.subset exact hcn && Fixtures.subset exact leaf)

let prop_placement_monotone =
  QCheck.Test.make ~count:100 ~name:"lineage subset hcn subset leaf" arb_case
    (fun (d, (sql, _)) ->
      let db = build_db d in
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
    arb_case (fun (d, (sql, _)) ->
      let db = build_db d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_pat" sql in
      Fixtures.subset exact lineage)

let prop_sj_exact =
  QCheck.Test.make ~count:120 ~name:"Theorem 3.7: hcn exact on SJ queries"
    arb_case (fun (d, (sql, is_sj)) ->
      QCheck.assume is_sj;
      let db = build_db d in
      let exact = Fixtures.exact_ids db ~audit:"audit_pat" sql in
      let hcn =
        Fixtures.audit_ids db ~audit:"audit_pat"
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      exact = hcn)

let prop_optimizer_equivalence =
  QCheck.Test.make ~count:120 ~name:"optimize+prune preserves results" arb_case
    (fun (d, (sql, _)) ->
      let db = build_db d in
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

(* --------------------------------------------------------------- *)
(* Compiled engine: chunk boundaries and verification parity       *)
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
         let db = Db.Database.create () in
         Db.Database.set_verify_plans db Db.Database.Warn;
         Db.Database.set_exec_mode db `Row;
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
          Db.Database.plan_sql db ~audits:[ "audit_big" ]
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

(* The plan verifier's verdict cannot depend on the engine, and Strict
   execution must behave identically: every mode succeeds with the same
   rows, or every mode refuses with the same Verify error. *)
let prop_verify_both_modes =
  QCheck.Test.make ~count:60 ~name:"Plan_verify parity across exec modes"
    arb_case (fun (d, (sql, _)) ->
      let db = build_db d in
      ignore
        (Db.Database.exec db
           "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'");
      Db.Database.set_verify_plans db Db.Database.Strict;
      let run mode =
        Db.Database.set_exec_mode db mode;
        match Db.Database.exec db sql with
        | Db.Database.Rows { rows; _ } -> Ok (sorted rows)
        | r -> Ok [ [| Value.Str (Db.Database.result_to_string r) |] ]
        | exception Engine_core.Engine_error.Error (Engine_core.Engine_error.Verify m)
          ->
          Error m
      in
      let oracle = run `Row in
      oracle = run `Compiled)

(* --------------------------------------------------------------- *)
(* Compiled engine: elision, cancellation, fault fallback           *)
(* --------------------------------------------------------------- *)

(* The push-based compiled engine must agree with the row oracle through
   the full statement pipeline — instrumented plans, trigger firing,
   NOTIFY — whether certified probe elision is off or on. A fresh
   database per elision mode keeps the two runs independent. *)
let prop_compiled_elision_parity =
  QCheck.Test.make ~count:80
    ~name:"compiled = row with elision off and certified" arb_case
    (fun (d, (sql, _)) ->
      List.for_all
        (fun em ->
          let db = build_db d in
          ignore
            (Db.Database.exec db
               "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'");
          Db.Database.set_elision_mode db em;
          let run mode =
            Db.Database.set_exec_mode db mode;
            Db.Database.clear_notifications db;
            let rows =
              match Db.Database.exec db sql with
              | Db.Database.Rows { rows; _ } -> rows
              | r -> [ [| Value.Str (Db.Database.result_to_string r) |] ]
            in
            ( rows,
              Db.Database.last_accessed db,
              Db.Database.notifications db )
          in
          run `Row = run `Compiled)
        [ Db.Database.Elide_off; Db.Database.Elide_certified ])

(* Cancellation parity: with a random row/memory budget (or an
   already-expired deadline), the compiled engine either completes with
   the row engine's rows or parks mid-pipeline at exactly the same
   point — same cancellation reason, same rows_scanned /
   tuples_materialized counters, same partial ACCESSED set. *)
let arb_cancel_case =
  QCheck.make
    ~print:(fun ((d, (sql, _)), (kind, n)) ->
      Printf.sprintf "patients=%d visits=%d index=%b %s=%d\n%s"
        (List.length d.patients) (List.length d.visits) d.with_index
        (match kind with
        | `Rows -> "row-budget"
        | `Mem -> "mem-budget"
        | `Deadline -> "timeout")
        n sql)
    QCheck.Gen.(
      pair (pair gen_dataset gen_query)
        (pair (oneofl [ `Rows; `Rows; `Mem; `Mem; `Deadline ]) (int_range 1 8)))

let prop_compiled_cancel_parity =
  QCheck.Test.make ~count:120
    ~name:"compiled = row under budget/timeout cancellation" arb_cancel_case
    (fun ((d, (sql, _)), (kind, n)) ->
      let module E = Engine_core.Engine_error in
      let run mode =
        let db = build_db d in
        ignore
          (Db.Database.exec db
             "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'");
        Db.Database.set_exec_mode db mode;
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

(* An armed fault kit must force the compiled engine onto the row
   engine's per-operator path, so an [Op_next] point fires at exactly
   the same getNext in both modes: identical injected-fault error and
   identical fired-point log. A native push pipeline would never call
   [on_get_next] and would succeed — detectably diverging from the row
   oracle. *)
let prop_compiled_fault_fallback =
  QCheck.Test.make ~count:60
    ~name:"armed Faultkit forces the compiled engine's fallback" arb_case
    (fun (d, (sql, _)) ->
      let run mode =
        let db = build_db d in
        ignore
          (Db.Database.exec db
             "CREATE TRIGGER w ON ACCESS TO audit_pat AS NOTIFY 'hit'");
        Db.Database.set_exec_mode db mode;
        let kit = Db.Database.faults db in
        Engine_core.Faultkit.arm kit
          [ Engine_core.Faultkit.Op_next { op = "*"; at = 1 } ];
        let outcome =
          match Db.Database.exec db sql with
          | Db.Database.Rows { rows; _ } -> Ok (sorted rows)
          | r -> Ok [ [| Value.Str (Db.Database.result_to_string r) |] ]
          | exception Engine_core.Faultkit.Fault_injected m -> Error m
          | exception
              Engine_core.Engine_error.Error (Engine_core.Engine_error.Fault m)
            ->
            Error m
        in
        (outcome, Engine_core.Faultkit.fired kit)
      in
      let row = run `Row and compiled = run `Compiled in
      row = compiled
      && (match fst compiled with Error _ -> true | Ok _ -> false))

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
      prop_verify_both_modes;
      prop_compiled_elision_parity;
      prop_compiled_cancel_parity;
      prop_compiled_fault_fallback;
    ]
