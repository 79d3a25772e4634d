(** UNION / UNION ALL / EXCEPT / INTERSECT: SQL semantics, placement of
    audit operators inside branches, and offline/online agreement. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i
let vs s = Value.Str s

let q db sql = Fixtures.rows_sorted db sql

let test_union_all_and_union () =
  let db = Fixtures.healthcare () in
  check Fixtures.tuples "union all keeps duplicates"
    [ [| vi 48109 |]; [| vi 48109 |]; [| vi 48109 |]; [| vi 48109 |] ]
    (q db
       "SELECT zip FROM patients WHERE zip = 48109 UNION ALL SELECT zip \
        FROM patients WHERE zip = 48109");
  check Fixtures.tuples "union deduplicates"
    [ [| vi 10001 |]; [| vi 48109 |]; [| vi 98052 |] ]
    (q db "SELECT zip FROM patients UNION SELECT zip FROM patients");
  check Fixtures.tuples "union of different sources"
    [ [| vs "Alice" |]; [| vs "Bob" |]; [| vs "cancer" |]; [| vs "flu" |] ]
    (q db
       "SELECT name FROM patients WHERE zip = 48109 UNION SELECT DISTINCT \
        disease FROM disease WHERE patientid < 3")

let test_except_intersect () =
  let db = Fixtures.healthcare () in
  check Fixtures.tuples "except"
    [ [| vs "Carol" |]; [| vs "Eve" |] ]
    (q db
       "SELECT name FROM patients EXCEPT SELECT name FROM patients p, \
        disease d WHERE p.patientid = d.patientid AND d.disease IN \
        ('cancer', 'flu') AND p.zip = 48109 EXCEPT SELECT 'Dave'");
  check Fixtures.tuples "intersect"
    [ [| vs "Alice" |]; [| vs "Bob" |] ]
    (q db
       "SELECT name FROM patients WHERE zip = 48109 INTERSECT SELECT name \
        FROM patients WHERE age < 40")

let test_union_order_limit () =
  let db = Fixtures.healthcare () in
  (* The last component's ORDER BY/LIMIT apply to the whole union. *)
  check Fixtures.tuples "ordered union with limit"
    [ [| vs "Eve" |]; [| vs "Dave" |] ]
    (Db.Database.query db
       "SELECT name FROM patients WHERE zip = 10001 UNION SELECT name FROM \
        patients WHERE zip = 98052 ORDER BY name DESC LIMIT 2");
  (* ORDER BY on a non-final component is rejected. *)
  match
    Db.Database.exec db
      "SELECT name FROM patients ORDER BY name UNION SELECT name FROM \
       patients"
  with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "expected an error for ORDER BY before UNION"

let test_arity_mismatch () =
  let db = Fixtures.healthcare () in
  match
    Db.Database.exec db "SELECT name, age FROM patients UNION SELECT name FROM patients"
  with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch error"

let test_union_audit_no_false_negatives () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  let sql =
    "SELECT name FROM patients WHERE age < 30 UNION SELECT name FROM \
     patients WHERE zip = 98052"
  in
  let plan =
    Db.Database.plan_sql db ~audits:[ "audit_all" ]
      ~heuristic:Audit_core.Placement.Hcn ~prune:false sql
  in
  check Alcotest.int "one audit operator per branch" 2
    (List.length (Plan.Logical.audits plan));
  let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
  let hcn =
    Fixtures.audit_ids db ~audit:"audit_all"
      ~heuristic:Audit_core.Placement.Hcn sql
  in
  check Alcotest.bool "no false negatives across the union" true
    (Fixtures.subset exact hcn);
  (* exact: Bob and Eve (age<30) plus Carol and Dave (98052). Note the
     duplicate-elimination caveat does not bite here (distinct names). *)
  check Fixtures.values "exact set" [ vi 2; vi 3; vi 4; vi 5 ] exact

let test_union_lineage () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  List.iter
    (fun sql ->
      let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_all" sql in
      check Alcotest.bool
        (Printf.sprintf "exact subset lineage: %s" sql)
        true
        (Fixtures.subset exact lineage))
    [
      "SELECT name FROM patients WHERE age < 30 UNION ALL SELECT name FROM \
       patients WHERE zip = 98052";
      "SELECT name FROM patients WHERE age < 30 UNION SELECT name FROM \
       patients WHERE zip = 98052";
      "SELECT name FROM patients INTERSECT SELECT name FROM patients WHERE \
       age > 25";
    ]

let test_instrumented_union_results_identical () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  let sql =
    "SELECT name FROM patients WHERE age < 30 UNION SELECT name FROM \
     patients WHERE zip = 98052 EXCEPT SELECT 'Dave'"
  in
  let base = q db sql in
  List.iter
    (fun h ->
      let inst =
        Db.Database.run_plan db
          (Db.Database.prepare_sql db ~audits:[ "audit_all" ] ~heuristic:h sql)
      in
      check Fixtures.tuples "instrumented union identical" base
        (List.sort Tuple.compare inst))
    Audit_core.Placement.[ Leaf; Hcn; Highest ]

let suite =
  [
    Alcotest.test_case "UNION / UNION ALL" `Quick test_union_all_and_union;
    Alcotest.test_case "EXCEPT / INTERSECT" `Quick test_except_intersect;
    Alcotest.test_case "ORDER BY/LIMIT on the last component" `Quick
      test_union_order_limit;
    Alcotest.test_case "arity mismatch rejected" `Quick test_arity_mismatch;
    Alcotest.test_case "audit across UNION: no false negatives" `Quick
      test_union_audit_no_false_negatives;
    Alcotest.test_case "lineage across set ops" `Quick test_union_lineage;
    Alcotest.test_case "instrumented set-op plans are no-ops" `Quick
      test_instrumented_union_results_identical;
  ]
