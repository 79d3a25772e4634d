(** The logical → physical lowering: join-strategy selection shapes
    (hash / nested-loop / index-nested-loop, Top_k fusion), cardinality
    stamping, the §III audit-independence gate, and TPC-H parity — the
    compiled-expression physical pipeline returns identical result rows
    and identical ACCESSED sets to the interpreter oracle, with the
    [AuditProbe] node at the hcn position of the physical tree. *)

open Storage
open Plan

let check = Alcotest.check

(* --------------------------------------------------------------- *)
(* Tree helpers                                                     *)
(* --------------------------------------------------------------- *)

let has_prefix p s = String.starts_with ~prefix:p s

let rec contains_op prefix (p : Physical.t) =
  has_prefix prefix (Physical.label p)
  || List.exists (contains_op prefix) (Physical.children p)

let rec find_op prefix (p : Physical.t) : Physical.t option =
  if has_prefix prefix (Physical.label p) then Some p
  else List.find_map (find_op prefix) (Physical.children p)

let rec node_count (p : Physical.t) =
  1 + List.fold_left (fun a c -> a + node_count c) 0 (Physical.children p)

let phys db sql ?audits ?heuristic () =
  let plan =
    match (audits, heuristic) with
    | Some a, Some h -> Db.Database.plan_sql db ~audits:a ~heuristic:h sql
    | _ -> Db.Database.plan_sql db ~audits:[] sql
  in
  (plan, Db.Database.physical db plan)

(* --------------------------------------------------------------- *)
(* Strategy-selection shapes                                        *)
(* --------------------------------------------------------------- *)

let join_sql =
  "SELECT name, disease FROM patients p, disease d WHERE p.patientid = \
   d.patientid"

let test_equi_becomes_hash_join () =
  let db = Fixtures.healthcare () in
  let _, p = phys db join_sql () in
  check Alcotest.bool "equi join lowers to HashJoin" true
    (contains_op "HashJoin" p);
  check Alcotest.bool "no NL join remains" false (contains_op "NLJoin" p)

let test_non_equi_becomes_nl_join () =
  let db = Fixtures.healthcare () in
  let _, p =
    phys db
      "SELECT name FROM patients p, disease d WHERE p.age > d.patientid" ()
  in
  check Alcotest.bool "non-equi join lowers to NLJoin" true
    (contains_op "NLJoin" p);
  check Alcotest.bool "no hash join" false (contains_op "HashJoin" p)

let test_topk_fusion () =
  let db = Fixtures.healthcare () in
  let _, p = phys db "SELECT TOP 3 name FROM patients ORDER BY age DESC" () in
  check Alcotest.bool "Limit-over-Sort fuses to TopK" true
    (contains_op "TopK 3" p);
  check Alcotest.bool "no separate Sort" false (contains_op "Sort" p);
  (* TOP without ORDER BY stays a plain Limit. *)
  let _, p2 = phys db "SELECT TOP 3 name FROM patients" () in
  check Alcotest.bool "bare TOP stays Limit" true (contains_op "Limit 3" p2)

let test_estimates_stamped () =
  let db = Fixtures.healthcare () in
  let _, p = phys db join_sql () in
  let rec all_nonneg (n : Physical.t) =
    n.Physical.est >= 0.0 && List.for_all all_nonneg (Physical.children n)
  in
  check Alcotest.bool "every node carries an estimate" true (all_nonneg p);
  check Alcotest.bool "root estimate positive" true (p.Physical.est > 0.0);
  (* The rendered tree shows them (what plain EXPLAIN prints). *)
  check Alcotest.bool "rendering shows est rows" true
    (let s = Physical.to_string p in
     let rec go i =
       i + 9 <= String.length s && (String.sub s i 9 = "est rows=" || go (i + 1))
     in
     go 0)

(* --------------------------------------------------------------- *)
(* Index nested loops and the audit gate                            *)
(* --------------------------------------------------------------- *)

let inl_fixture () =
  let db = Fixtures.create () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE big (id INT PRIMARY KEY, grp INT, payload VARCHAR)";
  for i = 1 to 500 do
    e (Printf.sprintf "INSERT INTO big VALUES (%d, %d, 'row%d')" i (i mod 50) i)
  done;
  e "CREATE TABLE probe (pid INT PRIMARY KEY, target INT)";
  e "INSERT INTO probe VALUES (1, 7), (2, 13), (3, 7)";
  db

let inl_sql = "SELECT p.pid, b.payload FROM probe p, big b WHERE b.id = p.target"

let test_inl_selected () =
  let db = inl_fixture () in
  let _, p = phys db inl_sql () in
  check Alcotest.bool "small probe side over keyed table picks IndexNLJoin"
    true
    (contains_op "IndexNLJoin" p)

let test_audit_in_chain_blocks_inl () =
  let db = inl_fixture () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_big AS SELECT * FROM big FOR \
        SENSITIVE TABLE big, PARTITION BY id");
  (* Leaf placement puts the audit on big's scan: folding that chain into
     index lookups would make audit cardinality depend on the physical
     strategy (§III), so lowering must refuse INL... *)
  let plan, p =
    phys db inl_sql ~audits:[ "audit_big" ]
      ~heuristic:Audit_core.Placement.Leaf ()
  in
  check Alcotest.bool "audit in probe chain refuses IndexNLJoin" false
    (contains_op "IndexNLJoin" p);
  check Alcotest.bool "falls back to a hash join" true
    (contains_op "HashJoin" p);
  (* ...and the audit operator survives lowering verbatim. *)
  check
    Alcotest.(list (pair string int))
    "physical audits = logical audits" (Logical.audits plan)
    (Physical.audits p);
  (* Hcn placement sits above the join, so INL is allowed again. *)
  let plan', p' =
    phys db inl_sql ~audits:[ "audit_big" ]
      ~heuristic:Audit_core.Placement.Hcn ()
  in
  check Alcotest.bool "hcn placement keeps IndexNLJoin" true
    (contains_op "IndexNLJoin" p');
  check
    Alcotest.(list (pair string int))
    "hcn audits preserved too" (Logical.audits plan')
    (Physical.audits p')

let test_audit_probe_at_hcn_position () =
  let db = Fixtures.healthcare_with_alice () in
  let _, p =
    phys db join_sql ~audits:[ "audit_alice" ]
      ~heuristic:Audit_core.Placement.Hcn ()
  in
  (match find_op "AuditProbe" p with
  | None -> Alcotest.fail "hcn plan lost its AuditProbe"
  | Some a ->
    check Alcotest.bool "hcn: AuditProbe above the join" true
      (contains_op "HashJoin" a));
  let _, p_leaf =
    phys db join_sql ~audits:[ "audit_alice" ]
      ~heuristic:Audit_core.Placement.Leaf ()
  in
  match find_op "AuditProbe" p_leaf with
  | None -> Alcotest.fail "leaf plan lost its AuditProbe"
  | Some a ->
    check Alcotest.bool "leaf: AuditProbe below the join (no join beneath)"
      false
      (contains_op "HashJoin" a)

(* --------------------------------------------------------------- *)
(* TPC-H parity: compiled pipeline ≡ interpreter oracle             *)
(* --------------------------------------------------------------- *)

let tpch =
  lazy
    (let db = Fixtures.create () in
     ignore (Tpch.Dbgen.load db ~sf:0.002);
     ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
     db)

let parity_queries () =
  ("micro", Experiments.Figures.micro_sql 0.5)
  :: List.map
       (fun (q : Tpch.Queries.query) -> (q.Tpch.Queries.id, q.Tpch.Queries.sql))
       Tpch.Queries.customer_workload

(* Run [sql] hcn-instrumented with expressions either compiled or fed
   through the interpreter oracle; returns (sorted rows, ACCESSED set). *)
let run_mode db ~interpret sql =
  let ctx = Db.Database.context db in
  ctx.Exec.Exec_ctx.interpret_exprs <- interpret;
  Fun.protect
    ~finally:(fun () -> ctx.Exec.Exec_ctx.interpret_exprs <- false)
    (fun () ->
      let plan =
        Db.Database.prepare_sql db ~audits:[ "audit_customer" ]
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      let rows = Db.Database.run_plan db plan in
      let accessed =
        Exec.Exec_ctx.accessed_list ctx ~audit_name:"audit_customer"
      in
      (List.sort Tuple.compare rows, List.sort compare accessed))

let test_tpch_parity () =
  let db = Lazy.force tpch in
  List.iter
    (fun (id, sql) ->
      let rows_c, acc_c = run_mode db ~interpret:false sql in
      let rows_i, acc_i = run_mode db ~interpret:true sql in
      check Fixtures.tuples (id ^ ": identical result rows") rows_i rows_c;
      check Fixtures.values (id ^ ": identical ACCESSED set") acc_i acc_c;
      (* The instrumented physical tree carries the audit at the position
         placement chose on the logical plan. *)
      let plan =
        Db.Database.plan_sql db ~audits:[ "audit_customer" ]
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      let p = Db.Database.physical db plan in
      check
        Alcotest.(list (pair string int))
        (id ^ ": audits preserved by lowering")
        (Logical.audits plan) (Physical.audits p);
      check Alcotest.bool (id ^ ": physical tree non-trivial") true
        (node_count p >= 3))
    (parity_queries ())

let suite =
  [
    Alcotest.test_case "equi join lowers to hash join" `Quick
      test_equi_becomes_hash_join;
    Alcotest.test_case "non-equi join lowers to NL join" `Quick
      test_non_equi_becomes_nl_join;
    Alcotest.test_case "TopK fusion" `Quick test_topk_fusion;
    Alcotest.test_case "cardinality estimates stamped" `Quick
      test_estimates_stamped;
    Alcotest.test_case "index NL join selected" `Quick test_inl_selected;
    Alcotest.test_case "audit in probe chain blocks INL" `Quick
      test_audit_in_chain_blocks_inl;
    Alcotest.test_case "AuditProbe at the hcn position" `Quick
      test_audit_probe_at_hcn_position;
    Alcotest.test_case "TPC-H parity: compiled = interpreted (rows + \
                        ACCESSED)" `Slow test_tpch_parity;
  ]
