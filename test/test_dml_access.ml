(** §II-B: UPDATE and DELETE read rows before modifying them — the affected
    sensitive rows are accesses under traditional trigger semantics and
    fire ON ACCESS triggers. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i

let setup () =
  let db = Fixtures.healthcare_with_alice () in
  ignore (Db.Database.exec db "CREATE TABLE log (ts INT, patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO \
        log SELECT now(), patientid FROM accessed");
  db

let log db = Fixtures.rows_sorted db "SELECT patientid FROM log"

let test_update_records_access () =
  let db = setup () in
  ignore (Db.Database.exec db "UPDATE patients SET age = age + 1 WHERE name = 'Alice'");
  check Fixtures.tuples "update read Alice" [ [| vi 1 |] ] (log db)

let test_update_renaming_away_still_access () =
  (* The row was sensitive when it was read, even though the update makes
     it non-sensitive. *)
  let db = setup () in
  ignore (Db.Database.exec db "UPDATE patients SET name = 'Alicia' WHERE patientid = 1");
  check Fixtures.tuples "rename-away is an access" [ [| vi 1 |] ] (log db);
  (* And the view no longer contains her. *)
  check Alcotest.int "view updated" 0
    (Audit_core.Sensitive_view.cardinality
       (Db.Database.audit_view db "audit_alice"))

let test_delete_records_access () =
  let db = setup () in
  ignore (Db.Database.exec db "DELETE FROM disease WHERE patientid = 1");
  check Fixtures.tuples "deleting another table: no access" [] (log db);
  ignore (Db.Database.exec db "DELETE FROM patients WHERE patientid = 1");
  check Fixtures.tuples "deleting Alice is an access" [ [| vi 1 |] ] (log db)

let test_untouched_rows_not_accessed () =
  let db = setup () in
  ignore (Db.Database.exec db "UPDATE patients SET age = 0 WHERE name = 'Bob'");
  ignore (Db.Database.exec db "DELETE FROM patients WHERE name = 'Carol'");
  check Fixtures.tuples "no Alice access" [] (log db)

let test_insert_is_not_access () =
  let db = setup () in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (9, 'Alice', 1, 1)");
  check Fixtures.tuples "INSERT VALUES reads nothing" [] (log db)

let test_insert_select_is_audited () =
  (* Copying sensitive rows into a private table must not evade auditing:
     the SELECT side of INSERT ... SELECT is instrumented and fires. *)
  let db = setup () in
  ignore (Db.Database.exec db "CREATE TABLE stash (patientid INT, name VARCHAR)");
  ignore
    (Db.Database.exec db
       "INSERT INTO stash SELECT patientid, name FROM patients WHERE name = \
        'Alice'");
  check Fixtures.tuples "exfiltration logged" [ [| vi 1 |] ] (log db);
  check Alcotest.int "rows still inserted" 1
    (List.length (Db.Database.query db "SELECT * FROM stash"))

let test_accessed_state_reset_between_statements () =
  let db = setup () in
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "one entry from the select" 1 (List.length (log db));
  (* A following unrelated statement must not re-fire with stale state. *)
  ignore (Db.Database.exec db "UPDATE patients SET age = 0 WHERE name = 'Bob'");
  check Alcotest.int "still one entry" 1 (List.length (log db))

(* A DML inside a trigger action reads like any read there: its access
   joins the statement's ACCESSED set, but nothing fires (the depth
   rule). *)
let test_dml_in_trigger_action_fires_nothing () =
  let db = setup () in
  ignore (Db.Database.exec db "CREATE TABLE visits (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER bump ON visits AFTER INSERT AS UPDATE patients SET \
        age = age + 1 WHERE patientid = 1");
  ignore (Db.Database.exec db "INSERT INTO visits VALUES (1)");
  check Fixtures.values "the action's read is in ACCESSED" [ vi 1 ]
    (Exec.Exec_ctx.accessed_list (Db.Database.context db)
       ~audit_name:"audit_alice");
  check Fixtures.tuples "no SELECT trigger fired" [] (log db);
  check Fixtures.tuples "the action's UPDATE ran" [ [| vi 35 |] ]
    (Db.Database.query db "SELECT age FROM patients WHERE patientid = 1")

(* The read of a DELETE completes, and fires, before the rows go: an ON
   ACCESS action can still join the accessed IDs to the rows. *)
let test_delete_trigger_sees_deleted_row () =
  let db = setup () in
  ignore (Db.Database.exec db "CREATE TABLE seen (patientid INT, name VARCHAR)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER keep ON ACCESS TO audit_alice AS INSERT INTO seen \
        SELECT p.patientid, p.name FROM patients p, accessed a WHERE \
        p.patientid = a.patientid");
  ignore (Db.Database.exec db "DELETE FROM patients WHERE patientid = 1");
  check Fixtures.tuples "the action saw Alice's row"
    [ [| vi 1; Value.Str "Alice" |] ]
    (Fixtures.rows_sorted db "SELECT * FROM seen");
  check Fixtures.tuples "and she is gone" []
    (Db.Database.query db "SELECT * FROM patients WHERE patientid = 1")

(* A DML WHERE binds as a query's WHERE, subqueries included. *)
let test_delete_where_in_subquery () =
  let db = setup () in
  ignore
    (Db.Database.exec db
       "DELETE FROM patients WHERE patientid IN (SELECT patientid FROM \
        disease WHERE disease = 'cancer')");
  check
    Alcotest.(list (pair string Fixtures.values))
    "last_accessed follows the read"
    [ ("audit_alice", [ vi 1 ]) ]
    (Db.Database.last_accessed db);
  check Fixtures.tuples "Alice and Dave deleted"
    [ [| vi 2 |]; [| vi 3 |]; [| vi 5 |] ]
    (Fixtures.rows_sorted db "SELECT patientid FROM patients");
  check Fixtures.tuples "Alice's access logged" [ [| vi 1 |] ] (log db);
  (* The subquery is a read of its own: a watched audit expression over
     another table instruments it too. *)
  let db = setup () in
  ignore
    (Db.Database.exec db
       "DELETE FROM disease WHERE patientid IN (SELECT patientid FROM \
        patients WHERE name = 'Alice')");
  check Fixtures.tuples "the subquery's read of Alice logged" [ [| vi 1 |] ]
    (log db)

(* A keyed UPDATE reaches its rows through the primary-key index but
   changes them in slot order, as a walk of every slot would: shifting
   consecutive keys up collides when the rows were stored in ascending key
   order and succeeds when they were stored in descending order. *)
let test_update_shifting_keys () =
  List.iter
    (fun (exec, storage) ->
      let config = { Fixtures.config with Db.Config.exec; storage } in
      let run values =
        let db = Fixtures.create ~config () in
        let e sql = ignore (Db.Database.exec db sql) in
        e "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)";
        e ("INSERT INTO t VALUES " ^ values);
        let outcome =
          match Db.Database.exec db "UPDATE t SET id = id + 1" with
          | r -> Db.Database.result_to_string r
          | exception Db.Database.Db_error m -> "error: " ^ m
        in
        (outcome, Fixtures.rows_sorted db "SELECT id, v FROM t")
      in
      let name = Fixtures.string_of_config config in
      let outcome, rows = run "(1, 'a'), (2, 'b'), (3, 'c')" in
      check Alcotest.string ("ascending: collides, " ^ name)
        "error: execution error: table t: duplicate key 2 on update" outcome;
      check Fixtures.tuples ("ascending: unchanged, " ^ name)
        [ [| vi 1; Value.Str "a" |]; [| vi 2; Value.Str "b" |];
          [| vi 3; Value.Str "c" |] ]
        rows;
      let outcome, rows = run "(3, 'c'), (2, 'b'), (1, 'a')" in
      check Alcotest.string ("descending: succeeds, " ^ name)
        "(3 rows affected)" outcome;
      check Fixtures.tuples ("descending: shifted, " ^ name)
        [ [| vi 2; Value.Str "a" |]; [| vi 3; Value.Str "b" |];
          [| vi 4; Value.Str "c" |] ]
        rows)
    [
      (`Row, Table.Heap);
      (`Row, Table.Columnar);
      (`Compiled, Table.Heap);
      (`Compiled, Table.Columnar);
    ]

let suite =
  [
    Alcotest.test_case "UPDATE records read-access" `Quick
      test_update_records_access;
    Alcotest.test_case "UPDATE that renames away still accesses" `Quick
      test_update_renaming_away_still_access;
    Alcotest.test_case "DELETE records read-access" `Quick
      test_delete_records_access;
    Alcotest.test_case "untouched rows are not accessed" `Quick
      test_untouched_rows_not_accessed;
    Alcotest.test_case "INSERT is not an access" `Quick
      test_insert_is_not_access;
    Alcotest.test_case "INSERT ... SELECT is audited" `Quick
      test_insert_select_is_audited;
    Alcotest.test_case "no stale ACCESSED across statements" `Quick
      test_accessed_state_reset_between_statements;
    Alcotest.test_case "DML in a trigger action fires nothing" `Quick
      test_dml_in_trigger_action_fires_nothing;
    Alcotest.test_case "DELETE's ON ACCESS trigger sees the row" `Quick
      test_delete_trigger_sees_deleted_row;
    Alcotest.test_case "DELETE ... WHERE IN (subquery)" `Quick
      test_delete_where_in_subquery;
    Alcotest.test_case "UPDATE shifting consecutive keys" `Quick
      test_update_shifting_keys;
  ]
