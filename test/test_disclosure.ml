(** Disclosure accounting (Example 1.1 / Figure 1 as a library):
    install → workload → per-individual report with offline verification. *)

open Storage

let check = Alcotest.check

let setup () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  Db.Disclosure.install db ~audit_name:"audit_all" ();
  db

let test_report_confirms_and_discards () =
  let db = setup () in
  Db.Database.set_user db "dr_house";
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  Db.Database.set_user db "intern";
  (* Leaf heuristic over-reports: force a false positive for Alice by using
     the leaf heuristic on a query that joins her away. *)
  Db.Database.set_heuristic db Audit_core.Placement.Leaf;
  ignore
    (Db.Database.exec db
       "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
        d.patientid AND d.disease = 'flu'");
  Db.Database.set_heuristic db Audit_core.Placement.Hcn;
  let report = Db.Disclosure.report db ~audit_name:"audit_all" ~id:(Value.Int 1) in
  (match report with
  | [ a; b ] ->
    check Alcotest.string "first access by dr_house" "dr_house"
      a.Db.Disclosure.user;
    check Alcotest.bool "point query verified" true a.Db.Disclosure.verified;
    check Alcotest.string "second access by intern" "intern"
      b.Db.Disclosure.user;
    check Alcotest.bool "leaf false positive discarded offline" false
      b.Db.Disclosure.verified
  | _ -> Alcotest.failf "expected 2 entries, got %d" (List.length report));
  check
    Alcotest.(list string)
    "revealed_to keeps only verified users" [ "dr_house" ]
    (Db.Disclosure.revealed_to db ~audit_name:"audit_all" ~id:(Value.Int 1))

let test_subquery_access_reported () =
  let db = setup () in
  Db.Database.set_user db "sneaky";
  ignore
    (Db.Database.exec db
       "SELECT 1 FROM patients WHERE EXISTS (SELECT * FROM patients p, \
        disease d WHERE p.patientid = d.patientid AND name = 'Alice' AND \
        disease = 'cancer')");
  check
    Alcotest.(list string)
    "EXISTS access verified for Alice" [ "sneaky" ]
    (Db.Disclosure.revealed_to db ~audit_name:"audit_all" ~id:(Value.Int 1))

let test_untouched_individual_empty () =
  let db = setup () in
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "Eve has no disclosures" 0
    (List.length
       (Db.Disclosure.report db ~audit_name:"audit_all" ~id:(Value.Int 5)))

(* The log's [accessed_id] column takes the partition key's type: a
   VARCHAR key fits it, so the read is logged and then verified. *)
let test_non_integer_partition_key () =
  let db = Fixtures.create () in
  List.iter
    (fun sql -> ignore (Db.Database.exec db sql))
    [
      "CREATE TABLE staff (ssn VARCHAR PRIMARY KEY, name VARCHAR, salary INT)";
      "INSERT INTO staff VALUES ('123-45', 'Ann', 100), ('678-90', 'Bob', 90)";
      "CREATE AUDIT EXPRESSION audit_staff AS SELECT * FROM staff WHERE \
       salary > 95 FOR SENSITIVE TABLE staff, PARTITION BY ssn";
    ];
  Db.Disclosure.install db ~audit_name:"audit_staff" ();
  Db.Database.set_user db "hr";
  check Alcotest.int "the read returns its row" 1
    (List.length
       (Db.Database.query db "SELECT name FROM staff WHERE ssn = '123-45'"));
  match
    Db.Disclosure.report db ~audit_name:"audit_staff" ~id:(Value.Str "123-45")
  with
  | [ e ] ->
    check Alcotest.string "logged for hr" "hr" e.Db.Disclosure.user;
    check Alcotest.bool "read verified" true e.Db.Disclosure.verified
  | r -> Alcotest.failf "expected 1 entry, got %d" (List.length r)

let test_uninstall () =
  let db = setup () in
  Db.Disclosure.uninstall db ~audit_name:"audit_all";
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  match
    Db.Database.query db "SELECT * FROM disclosure_log_audit_all"
  with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "log table should be gone"

let suite =
  [
    Alcotest.test_case "report verifies and discards" `Quick
      test_report_confirms_and_discards;
    Alcotest.test_case "subquery accesses reported" `Quick
      test_subquery_access_reported;
    Alcotest.test_case "untouched individual" `Quick
      test_untouched_individual_empty;
    Alcotest.test_case "non-integer partition key" `Quick
      test_non_integer_partition_key;
    Alcotest.test_case "uninstall" `Quick test_uninstall;
  ]
