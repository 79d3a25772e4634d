(** Database-facade tests: statement dispatch, scripts, result rendering,
    session state, error wrapping, DDL lifecycle, instrumentation switch. *)

open Storage

let check = Alcotest.check

let test_exec_script () =
  let db = Fixtures.create () in
  let results =
    Db.Database.exec_script db
      "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR); INSERT INTO t VALUES \
       (1, 'x'), (2, 'y'); SELECT count(*) FROM t;"
  in
  match results with
  | [ Db.Database.Done _; Db.Database.Affected 2; Db.Database.Rows { rows; _ } ]
    ->
    check Fixtures.tuples "count" [ [| Value.Int 2 |] ] rows
  | _ -> Alcotest.failf "unexpected script results (%d)" (List.length results)

let test_result_to_string () =
  let db = Fixtures.healthcare () in
  let s =
    Db.Database.result_to_string
      (Db.Database.exec db "SELECT patientid, name FROM patients WHERE patientid = 1")
  in
  check Alcotest.bool "header" true
    (String.length s > 0 && String.sub s 0 9 = "patientid");
  let ends_with ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  check Alcotest.bool "row count line" true
    (ends_with ~suffix:"(1 rows)" (String.trim s))

let test_query_value_errors () =
  let db = Fixtures.healthcare () in
  (match Db.Database.query_value db "SELECT age FROM patients" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "multi-row query_value should fail");
  match Db.Database.query db "INSERT INTO patients VALUES (9,'X',1,1)" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "query on non-SELECT should fail"

let test_ddl_lifecycle () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  check Alcotest.(list string) "audit listed" [ "audit_all" ]
    (Db.Database.audit_names db);
  ignore (Db.Database.exec db "DROP AUDIT EXPRESSION audit_all");
  check Alcotest.(list string) "audit dropped" [] (Db.Database.audit_names db);
  (* Trigger on a dropped audit is rejected. *)
  (match
     Db.Database.exec db "CREATE TRIGGER t ON ACCESS TO audit_all AS NOTIFY 'x'"
   with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "trigger on dropped audit");
  ignore (Db.Database.exec db "DROP TABLE departments");
  match Db.Database.exec db "SELECT * FROM departments" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "dropped table still queryable"

let test_instrumentation_switch () =
  let db = Fixtures.healthcare_with_alice () in
  ignore (Db.Database.exec db "CREATE TABLE log (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t ON ACCESS TO audit_alice AS INSERT INTO log SELECT \
        patientid FROM accessed");
  Db.Database.set_instrumentation db false;
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "instrumentation off: nothing logged" 0
    (List.length (Db.Database.query db "SELECT * FROM log"));
  Db.Database.set_instrumentation db true;
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "instrumentation on: logged" 1
    (List.length (Db.Database.query db "SELECT * FROM log"))

let test_heuristic_session_setting () =
  let db = Fixtures.healthcare_with_alice () in
  ignore (Db.Database.exec db "CREATE TABLE log (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t ON ACCESS TO audit_alice AS INSERT INTO log SELECT \
        patientid FROM accessed");
  (* Under the leaf heuristic the flu query false-positives on Alice; under
     hcn it does not (Example 3.1). *)
  let flu =
    "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
     d.patientid AND d.disease = 'flu'"
  in
  Db.Database.set_heuristic db Audit_core.Placement.Leaf;
  ignore (Db.Database.exec db flu);
  check Alcotest.int "leaf logs a false positive" 1
    (List.length (Db.Database.query db "SELECT * FROM log"));
  ignore (Db.Database.exec db "DELETE FROM log");
  Db.Database.set_heuristic db Audit_core.Placement.Hcn;
  ignore (Db.Database.exec db flu);
  check Alcotest.int "hcn logs nothing" 0
    (List.length (Db.Database.query db "SELECT * FROM log"))

let test_last_accessed_diagnostics () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  (match Db.Database.last_accessed db with
  | [ ("audit_alice", [ Value.Int 1 ]) ] -> ()
  | _ -> Alcotest.fail "last_accessed shape");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Bob'");
  check Alcotest.int "cleared on non-accessing query" 0
    (List.length (Db.Database.last_accessed db))

let test_error_offsets_wrapped () =
  let db = Fixtures.healthcare () in
  List.iter
    (fun sql ->
      match Db.Database.exec db sql with
      | exception Db.Database.Db_error _ -> ()
      | _ -> Alcotest.failf "expected error: %s" sql)
    [
      "SELEC 1";
      "SELECT 'unterminated";
      "SELECT 1 +";
      "CREATE TABLE patients (x INT)";
      "INSERT INTO patients VALUES (1)";
      "UPDATE patients SET nope = 1";
      "DELETE FROM nope";
      "SELECT 1/0";
    ]

(* A session copies its parent's configuration at creation — all four
   axes — and later changes stay private to the side that made them. *)
let test_session_inherits_config () =
  let config =
    {
      Db.Config.exec = `Compiled;
      storage = Table.Columnar;
      elision = Db.Config.Elide_certified;
      verify = Db.Config.Strict;
    }
  in
  let db = Db.Database.create ~config () in
  let s = Db.Database.create_session ~session_id:1 db in
  let cfg = Alcotest.testable (Fmt.of_to_string Fixtures.string_of_config) ( = ) in
  check cfg "session inherits every axis" config (Db.Database.config s);
  check Alcotest.string "axis getters read the record" "compiled columnar"
    (Db.Config.exec_to_string (Db.Database.exec_mode s)
    ^ " "
    ^ Db.Config.storage_to_string (Db.Database.storage_mode s));
  Db.Database.set_exec_mode s `Row;
  check cfg "a session's change stays private" config (Db.Database.config db);
  ignore (Db.Database.exec s "CREATE TABLE t (a INT PRIMARY KEY)");
  check Alcotest.bool "session creates tables in the inherited storage" true
    (Table.storage (Catalog.find (Db.Database.catalog db) "t") = Table.Columnar)

let suite =
  [
    Alcotest.test_case "exec_script" `Quick test_exec_script;
    Alcotest.test_case "result rendering" `Quick test_result_to_string;
    Alcotest.test_case "query/query_value errors" `Quick
      test_query_value_errors;
    Alcotest.test_case "DDL lifecycle" `Quick test_ddl_lifecycle;
    Alcotest.test_case "instrumentation switch" `Quick
      test_instrumentation_switch;
    Alcotest.test_case "session heuristic changes logging" `Quick
      test_heuristic_session_setting;
    Alcotest.test_case "last_accessed diagnostics" `Quick
      test_last_accessed_diagnostics;
    Alcotest.test_case "errors are wrapped" `Quick test_error_offsets_wrapped;
    Alcotest.test_case "sessions inherit the config" `Quick
      test_session_inherits_config;
  ]
