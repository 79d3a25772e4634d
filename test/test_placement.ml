(** Audit-operator placement tests — the paper's §III examples and claims,
    executed literally:

    - Example 3.1 / Fig 2: leaf vs join-top placement false positives;
    - Theorem 3.7: hcn is exact on SJ queries;
    - Example 3.2 / Fig 3: the highest-node heuristic produces a false
      negative on a top-k plan, hcn does not;
    - Fig 4(b): audit operator stops below GROUP BY;
    - Fig 4(c): subqueries get their own audit operator, ACCESSED is the
      union;
    - Example 3.9: hcn false positive under HAVING;
    - self-joins of the sensitive table get one operator per instance. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i

let audit_ids = Fixtures.audit_ids
let exact_ids = Fixtures.exact_ids

let with_audit_all db =
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  db

(* --------------------------------------------------------------- *)
(* Plan-shape helpers                                               *)
(* --------------------------------------------------------------- *)

(* The operator directly above the (single) audit node, descending from the
   root: returns a short tag. *)
let parent_of_audit (p : Plan.Logical.t) : string option =
  let tag = function
    | Plan.Logical.Scan _ -> "scan"
    | Plan.Logical.Filter _ -> "filter"
    | Plan.Logical.Project _ -> "project"
    | Plan.Logical.Join _ -> "join"
    | Plan.Logical.Semi_join _ -> "semi"
    | Plan.Logical.Apply _ -> "apply"
    | Plan.Logical.Group_by _ -> "group"
    | Plan.Logical.Sort _ -> "sort"
    | Plan.Logical.Limit _ -> "limit"
    | Plan.Logical.Distinct _ -> "distinct"
    | Plan.Logical.Audit _ -> "audit"
    | Plan.Logical.Set_op _ -> "setop"
  in
  let children = function
    | Plan.Logical.Scan _ -> []
    | Plan.Logical.Filter { child; _ }
    | Plan.Logical.Project { child; _ }
    | Plan.Logical.Group_by { child; _ }
    | Plan.Logical.Sort { child; _ }
    | Plan.Logical.Limit { child; _ } ->
      [ child ]
    | Plan.Logical.Distinct c -> [ c ]
    | Plan.Logical.Join { left; right; _ }
    | Plan.Logical.Semi_join { left; right; _ } ->
      [ left; right ]
    | Plan.Logical.Apply { outer; inner; _ } -> [ outer; inner ]
    | Plan.Logical.Set_op { left; right; _ } -> [ left; right ]
    | Plan.Logical.Audit { child; _ } -> [ child ]
  in
  let rec go parent p =
    match p with
    | Plan.Logical.Audit _ -> Some parent
    | _ ->
      List.fold_left
        (fun acc c -> match acc with Some _ -> acc | None -> go (tag p) c)
        None (children p)
  in
  go "root" p

let count_audits p = List.length (Plan.Logical.audits p)

(* --------------------------------------------------------------- *)
(* Example 3.1 / Figure 2                                           *)
(* --------------------------------------------------------------- *)

(* Two Alices; only one has the flu. The leaf-placed operator flags both,
   the join-top (hcn) operator only the flu one. *)
let test_example_3_1 () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (6,'Alice',50,11111)");
  ignore (Db.Database.exec db "INSERT INTO disease VALUES (6,'diabetes')");
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE \
        name = 'Alice' FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  (* Make patient 2 (Bob) the flu-Alice by renaming: simpler — give Alice 1
     the flu too. *)
  ignore (Db.Database.exec db "INSERT INTO disease VALUES (1,'flu')");
  let sql =
    "SELECT p.patientid, name, age, zip FROM patients p, disease d WHERE \
     p.patientid = d.patientid AND d.disease = 'flu'"
  in
  check Fixtures.values "leaf flags both Alices" [ vi 1; vi 6 ]
    (audit_ids db ~audit:"audit_alice" ~heuristic:Audit_core.Placement.Leaf sql);
  check Fixtures.values "hcn flags only the flu Alice" [ vi 1 ]
    (audit_ids db ~audit:"audit_alice" ~heuristic:Audit_core.Placement.Hcn sql);
  check Fixtures.values "exact agrees with hcn (SJ query)" [ vi 1 ]
    (exact_ids db ~audit:"audit_alice" sql)

let test_leaf_plan_shape () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Leaf ~prune:false
      "SELECT name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND p.age > 30 AND d.disease = 'flu'"
  in
  (* Pushdown puts p.age > 30 at the scan; leaf placement hoists the audit
     above that filter (audit sits above scan + single-table predicates,
     §III-C) but not above the join. *)
  check (Alcotest.option Alcotest.string) "audit directly below the join"
    (Some "join") (parent_of_audit plan)

let test_hcn_sj_at_top () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Hcn ~prune:false
      "SELECT name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND d.disease = 'flu'"
  in
  check (Alcotest.option Alcotest.string)
    "audit below only the final projection" (Some "project")
    (parent_of_audit plan)

(* --------------------------------------------------------------- *)
(* Theorem 3.7: SJ queries — hcn has no false positives             *)
(* --------------------------------------------------------------- *)

let test_theorem_3_7 () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  List.iter
    (fun sql ->
      let hcn = audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Hcn sql in
      let exact = exact_ids db ~audit:"audit_all" sql in
      check Fixtures.values (Printf.sprintf "hcn = exact for %s" sql) exact hcn)
    [
      "SELECT * FROM patients";
      "SELECT * FROM patients WHERE age > 30";
      "SELECT name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND d.disease = 'flu'";
      "SELECT name FROM patients p, disease d, departments dep WHERE \
       p.patientid = d.patientid AND p.patientid = dep.patientid AND \
       dep.deptid = 10";
      "SELECT name FROM patients WHERE zip = 48109 AND age < 30";
    ]

(* --------------------------------------------------------------- *)
(* Example 3.2 / Figure 3: highest-node false negative on top-k     *)
(* --------------------------------------------------------------- *)

let topk_fixture () =
  let db = Fixtures.create () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age INT)";
  e "CREATE TABLE disease (patientid INT, disease VARCHAR)";
  (* Bob is among the two youngest and does NOT have flu; deleting him pulls
     flu-patient Zoe into the window, so Bob influences the result. *)
  e "INSERT INTO patients VALUES (1,'Bob',22),(2,'Amy',23),(3,'Zoe',24),(4,'Old',80)";
  e "INSERT INTO disease VALUES (1,'cold'),(2,'flu'),(3,'flu'),(4,'flu')";
  e Fixtures.audit_all_sql;
  db

let topk_sql =
  "SELECT t.patientid FROM (SELECT TOP 2 patientid, name FROM patients \
   ORDER BY age) t, disease d WHERE t.patientid = d.patientid AND \
   d.disease = 'flu'"

let test_example_3_2_false_negative () =
  let db = topk_fixture () in
  let exact = exact_ids db ~audit:"audit_all" topk_sql in
  check Fixtures.values "exact: Amy in output, Bob influences the top-2"
    [ vi 1; vi 2 ] exact;
  let highest =
    audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Highest
      topk_sql
  in
  check Fixtures.values "highest-node misses Bob (false negative!)" [ vi 2 ]
    highest;
  let hcn =
    audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Hcn
      topk_sql
  in
  check Alcotest.bool "hcn has no false negative"
    true
    (Fixtures.subset exact hcn);
  (* hcn stops below the top-k. Under pipelined execution the Limit pulls
     exactly the window, so the operator observes precisely the window rows
     — which are exactly the influential ones here: no false negative, and
     in this plan shape not even a false positive. *)
  check Fixtures.values "hcn audits exactly the window" [ vi 1; vi 2 ] hcn

(* --------------------------------------------------------------- *)
(* Figure 4(b): audit stops below GROUP BY                          *)
(* --------------------------------------------------------------- *)

let test_fig4b_group_by () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Hcn ~prune:false
      "SELECT age, count(disease) FROM patients p, disease d WHERE \
       p.patientid = d.patientid AND disease = 'flu' GROUP BY age"
  in
  check (Alcotest.option Alcotest.string) "audit directly below group-by"
    (Some "group") (parent_of_audit plan)

(* --------------------------------------------------------------- *)
(* Figure 4(c): audit operators inside subqueries; ACCESSED = union *)
(* --------------------------------------------------------------- *)

let test_fig4c_subquery_union () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (6,'Alice',50,11111)");
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  let sql =
    "SELECT * FROM patients p1 WHERE name IN (SELECT name FROM patients p2 \
     WHERE p1.zip <> p2.zip)"
  in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Hcn ~prune:false sql
  in
  check Alcotest.int "two audit operators (outer + subquery)" 2
    (count_audits plan);
  let ids =
    audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Hcn sql
  in
  let exact = exact_ids db ~audit:"audit_all" sql in
  check Alcotest.bool "no false negatives" true (Fixtures.subset exact ids);
  (* Both Alices are truly accessed; the subquery's operator sees everyone. *)
  check Alcotest.bool "both Alices audited" true
    (Fixtures.subset [ vi 1; vi 6 ] ids)

(* --------------------------------------------------------------- *)
(* Example 3.9: hcn false positive under HAVING                     *)
(* --------------------------------------------------------------- *)

let test_example_3_9_having_fp () =
  let db = Fixtures.create () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR)";
  e "CREATE TABLE disease (patientid INT, disease VARCHAR)";
  e "INSERT INTO patients VALUES (1,'Alice'),(2,'Bob'),(3,'Carol')";
  (* Alice and Carol share a disease; Bob's is unique, so the HAVING clause
     filters his group. *)
  e "INSERT INTO disease VALUES (1,'flu'),(3,'flu'),(2,'measles')";
  e Fixtures.audit_all_sql;
  let sql =
    "SELECT d.disease FROM patients p, disease d WHERE p.patientid = \
     d.patientid GROUP BY d.disease HAVING count(*) >= 2"
  in
  let hcn = audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Hcn sql in
  let exact = exact_ids db ~audit:"audit_all" sql in
  check Fixtures.values "exact excludes Bob" [ vi 1; vi 3 ] exact;
  check Fixtures.values "hcn includes Bob (false positive)"
    [ vi 1; vi 2; vi 3 ] hcn;
  check Alcotest.bool "still no false negatives" true
    (Fixtures.subset exact hcn)

(* --------------------------------------------------------------- *)
(* Self-joins of the sensitive table                                *)
(* --------------------------------------------------------------- *)

let test_self_join_two_operators () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let sql =
    "SELECT a.name FROM patients a, patients b WHERE a.zip = b.zip AND \
     a.patientid <> b.patientid"
  in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Hcn ~prune:false sql
  in
  check Alcotest.int "one audit operator per instance" 2 (count_audits plan);
  let ids = audit_ids db ~audit:"audit_all" ~heuristic:Audit_core.Placement.Hcn sql in
  let exact = exact_ids db ~audit:"audit_all" sql in
  check Alcotest.bool "no false negatives" true (Fixtures.subset exact ids)

(* --------------------------------------------------------------- *)
(* No-op property & pruning interplay                               *)
(* --------------------------------------------------------------- *)

let test_instrumented_results_identical () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  List.iter
    (fun sql ->
      let base =
        Db.Database.run_plan db (Db.Database.prepare_sql db ~audits:[] sql)
      in
      List.iter
        (fun h ->
          let inst =
            Db.Database.run_plan db
              (Db.Database.prepare_sql db ~audits:[ "audit_all" ] ~heuristic:h sql)
          in
          check Fixtures.tuples
            (Printf.sprintf "same rows for %s" sql)
            (List.sort Tuple.compare base)
            (List.sort Tuple.compare inst))
        Audit_core.Placement.[ Leaf; Hcn; Highest ])
    [
      "SELECT * FROM patients WHERE age > 25";
      "SELECT name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND d.disease = 'flu'";
      "SELECT age, count(*) FROM patients GROUP BY age";
      "SELECT TOP 2 name FROM patients ORDER BY age DESC";
      "SELECT DISTINCT zip FROM patients";
    ]

let test_pruning_preserves_audit () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let sql =
    "SELECT name FROM patients p, disease d WHERE p.patientid = \
     d.patientid AND d.disease = 'cancer'"
  in
  let ids_unpruned =
    let p =
      Db.Database.prepare_sql db ~audits:[ "audit_all" ] ~prune:false sql
    in
    ignore (Db.Database.run_plan db p);
    Exec.Exec_ctx.accessed_list (Db.Database.context db) ~audit_name:"audit_all"
  in
  let ids_pruned =
    let p = Db.Database.prepare_sql db ~audits:[ "audit_all" ] ~prune:true sql in
    ignore (Db.Database.run_plan db p);
    Exec.Exec_ctx.accessed_list (Db.Database.context db) ~audit_name:"audit_all"
  in
  check Fixtures.values "pruning keeps the ID column alive" ids_unpruned
    ids_pruned

let test_no_sensitive_table_no_audit () =
  let db = with_audit_all (Fixtures.healthcare ()) in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      "SELECT disease FROM disease"
  in
  check Alcotest.int "no audit operator inserted" 0 (count_audits plan)

let suite =
  [
    Alcotest.test_case "Example 3.1 / Fig 2: leaf vs hcn FPs" `Quick
      test_example_3_1;
    Alcotest.test_case "leaf placement sits above scan+filters" `Quick
      test_leaf_plan_shape;
    Alcotest.test_case "hcn at plan top for SJ queries" `Quick
      test_hcn_sj_at_top;
    Alcotest.test_case "Theorem 3.7: hcn exact on SJ queries" `Quick
      test_theorem_3_7;
    Alcotest.test_case "Example 3.2 / Fig 3: highest-node false negative"
      `Quick test_example_3_2_false_negative;
    Alcotest.test_case "Fig 4(b): stop below GROUP BY" `Quick
      test_fig4b_group_by;
    Alcotest.test_case "Fig 4(c): subquery operators, ACCESSED union" `Quick
      test_fig4c_subquery_union;
    Alcotest.test_case "Example 3.9: hcn HAVING false positive" `Quick
      test_example_3_9_having_fp;
    Alcotest.test_case "self-join: one operator per instance" `Quick
      test_self_join_two_operators;
    Alcotest.test_case "audit operators are no-ops" `Quick
      test_instrumented_results_identical;
    Alcotest.test_case "column pruning preserves audit IDs" `Quick
      test_pruning_preserves_audit;
    Alcotest.test_case "no sensitive table => no operator" `Quick
      test_no_sensitive_table_no_audit;
  ]
