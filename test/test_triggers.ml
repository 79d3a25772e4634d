(** SELECT triggers and the trigger manager: firing semantics (§II), the
    ACCESSED relation, session functions, cascading into DML triggers, the
    depth limit, and DROP TRIGGER. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i

let db_with_log () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TABLE log (ts INT, usr VARCHAR, sqltext VARCHAR, patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO \
        log SELECT now(), user_id(), sql_text(), patientid FROM accessed");
  db

let log_rows db = Db.Database.query db "SELECT * FROM log"

let test_select_trigger_fires () =
  let db = db_with_log () in
  Db.Database.set_user db "mallory";
  let sql = "SELECT * FROM patients WHERE name = 'Alice'" in
  ignore (Db.Database.exec db sql);
  match log_rows db with
  | [ [| _; Value.Str u; Value.Str s; Value.Int 1 |] ] ->
    check Alcotest.string "user recorded" "mallory" u;
    check Alcotest.string "sql text recorded" sql s
  | rows -> Alcotest.failf "unexpected log: %d rows" (List.length rows)

let test_no_access_no_fire () =
  let db = db_with_log () in
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Bob'");
  check Alcotest.int "log empty" 0 (List.length (log_rows db));
  (* A query on an unrelated table cannot fire it either. *)
  ignore (Db.Database.exec db "SELECT * FROM disease");
  check Alcotest.int "still empty" 0 (List.length (log_rows db))

let test_accessed_contains_all_ids () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  ignore
    (Db.Database.exec db "CREATE TABLE log (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER log_all ON ACCESS TO audit_all AS INSERT INTO log \
        SELECT patientid FROM accessed");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE age < 40");
  check Fixtures.tuples "all accessed ids logged"
    [ [| vi 1 |]; [| vi 2 |]; [| vi 5 |] ]
    (Fixtures.rows_sorted db "SELECT * FROM log")

let test_accessed_relation_dropped_after () =
  let db = db_with_log () in
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  match Db.Database.exec db "SELECT * FROM accessed" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "accessed should not outlive the trigger action"

let test_logical_clock_increments () =
  let db = db_with_log () in
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  match log_rows db with
  | [ [| Value.Int t1; _; _; _ |]; [| Value.Int t2; _; _; _ |] ] ->
    check Alcotest.bool "clock strictly increases" true (t2 > t1)
  | _ -> Alcotest.fail "expected two log entries"

let test_join_action () =
  (* §II-C: action joining ACCESSED against another table. *)
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_cancer AS SELECT p.* FROM patients p, \
        disease d WHERE p.patientid = d.patientid AND disease = 'cancer' \
        FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  ignore (Db.Database.exec db "CREATE TABLE log (deptid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER log_depts ON ACCESS TO audit_cancer AS INSERT INTO \
        log SELECT DISTINCT d.deptid FROM accessed a, departments d WHERE \
        a.patientid = d.patientid");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Fixtures.tuples "department of the accessed cancer patient"
    [ [| vi 10 |] ]
    (Fixtures.rows_sorted db "SELECT * FROM log")

let test_cascade_to_dml_trigger () =
  let db = db_with_log () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER notify_on_log ON log AFTER INSERT AS NOTIFY 'logged'");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check
    Alcotest.(list string)
    "SELECT trigger cascaded into the INSERT trigger" [ "logged" ]
    (Db.Database.notifications db)

let test_conditional_notify () =
  (* The §II-C Notify pattern: alert when a user crosses a threshold. *)
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  ignore (Db.Database.exec db "CREATE TABLE log (usr VARCHAR, patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER log_all ON ACCESS TO audit_all AS INSERT INTO log \
        SELECT user_id(), patientid FROM accessed");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER bulk ON log AFTER INSERT AS IF ((SELECT \
        count(DISTINCT l.patientid) FROM log l, new n WHERE l.usr = n.usr) \
        > 3) NOTIFY 'bulk'");
  Db.Database.set_user db "ok_user";
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE age < 30");
  check Alcotest.int "2 patients: no alert" 0
    (List.length (Db.Database.notifications db));
  Db.Database.set_user db "greedy";
  ignore (Db.Database.exec db "SELECT * FROM patients");
  check Alcotest.int "5 patients: alert" 1
    (List.length (Db.Database.notifications db))

let test_dml_triggers_old_new () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db "CREATE TABLE audit_trail (op VARCHAR, patientid INT)");
  List.iter
    (fun sql -> ignore (Db.Database.exec db sql))
    [
      "CREATE TRIGGER t_ins ON patients AFTER INSERT AS INSERT INTO \
       audit_trail SELECT 'ins', patientid FROM new";
      "CREATE TRIGGER t_del ON patients AFTER DELETE AS INSERT INTO \
       audit_trail SELECT 'del', patientid FROM old";
      "CREATE TRIGGER t_upd ON patients AFTER UPDATE AS INSERT INTO \
       audit_trail SELECT 'upd', patientid FROM new";
    ];
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (10,'Zed',50,1)");
  ignore (Db.Database.exec db "UPDATE patients SET age = 51 WHERE patientid = 10");
  ignore (Db.Database.exec db "DELETE FROM patients WHERE patientid = 10");
  check Fixtures.tuples "trail"
    [
      [| Value.Str "del"; vi 10 |]; [| Value.Str "ins"; vi 10 |];
      [| Value.Str "upd"; vi 10 |];
    ]
    (Fixtures.rows_sorted db "SELECT * FROM audit_trail")

(* A failing DML trigger body must not leak the [new]/[old] pseudo-
   relations or the cascade depth: the next statement still routes
   through the audited pipeline and SELECT triggers still fire. *)
let test_failing_dml_trigger_no_leak () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER boom ON patients AFTER INSERT AS INSERT INTO \
        no_such_table SELECT patientid FROM new");
  (match Db.Database.exec db "INSERT INTO patients VALUES (10,'Zed',50,1)" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "expected the trigger body to fail");
  check Alcotest.int "trigger depth repaired" 0 (Db.Database.trigger_depth db);
  (match Db.Database.exec db "SELECT * FROM new" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "new leaked past the failed trigger");
  (match Db.Database.exec db "SELECT * FROM old" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "old leaked past the failed trigger");
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER still_audited ON ACCESS TO audit_all AS NOTIFY 'seen'");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE age < 30");
  check Alcotest.bool "SELECT triggers still fire afterwards" true
    (Db.Database.notifications db <> [])

(* A cascaded DML trigger binds its own [new]; when it unwinds, the outer
   body must resume with the outer binding instead of finding it dropped. *)
let test_nested_dml_new_restored () =
  let db = Fixtures.healthcare () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE a (x INT)";
  e "CREATE TABLE b (x INT)";
  e "CREATE TABLE c (x INT)";
  e
    "CREATE TRIGGER inner_t ON b AFTER INSERT AS INSERT INTO c SELECT x + \
     100 FROM new";
  e
    "CREATE TRIGGER outer_t ON a AFTER INSERT AS BEGIN INSERT INTO b \
     SELECT x FROM new; INSERT INTO c SELECT x FROM new; END";
  e "INSERT INTO a VALUES (1)";
  check Fixtures.tuples "outer new survives the cascade"
    [ [| vi 1 |]; [| vi 101 |] ]
    (Fixtures.rows_sorted db "SELECT * FROM c")

let test_depth_limit () =
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db "CREATE TABLE a (x INT)");
  ignore (Db.Database.exec db "CREATE TABLE b (x INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER ping ON a AFTER INSERT AS INSERT INTO b SELECT x FROM new");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER pong ON b AFTER INSERT AS INSERT INTO a SELECT x FROM new");
  match Db.Database.exec db "INSERT INTO a VALUES (1)" with
  | exception Db.Database.Db_error m ->
    check Alcotest.bool "mentions depth" true
      (String.length m > 0
      &&
      let rec has i =
        i + 5 <= String.length m && (String.sub m i 5 = "depth" || has (i + 1))
      in
      has 0)
  | _ -> Alcotest.fail "expected cascade depth error"

let test_drop_trigger () =
  let db = db_with_log () in
  ignore (Db.Database.exec db "DROP TRIGGER log_alice");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "no longer fires" 0 (List.length (log_rows db));
  match Db.Database.exec db "DROP TRIGGER log_alice" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "double drop should fail"

let test_multiple_triggers_same_audit () =
  let db = db_with_log () in
  ignore (Db.Database.exec db "CREATE TABLE log2 (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER second ON ACCESS TO audit_alice AS INSERT INTO log2 \
        SELECT patientid FROM accessed");
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "first trigger fired" 1 (List.length (log_rows db));
  check Alcotest.int "second trigger fired" 1
    (List.length (Db.Database.query db "SELECT * FROM log2"))

let test_before_return_deny () =
  (* §II variant: a BEFORE RETURN trigger can deny the query's result while
     the AFTER trigger still audits the access. *)
  let db = db_with_log () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER guard ON ACCESS TO audit_alice BEFORE RETURN AS IF \
        ((SELECT count(*) FROM accessed) > 0) DENY 'Alice is off limits'");
  (match Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'" with
  | exception Db.Database.Access_denied msg ->
    check Alcotest.string "denial message" "Alice is off limits" msg
  | _ -> Alcotest.fail "expected Access_denied");
  (* The AFTER trigger audited the denied query anyway. *)
  check Alcotest.int "denied access still logged" 1 (List.length (log_rows db));
  (* Queries not touching Alice are unaffected. *)
  check Alcotest.int "other queries pass" 1
    (List.length (Db.Database.query db "SELECT * FROM patients WHERE name = 'Bob'"))

let test_before_return_warn_only () =
  (* A BEFORE RETURN action without DENY is a warning: result flows. *)
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER warn ON ACCESS TO audit_alice BEFORE RETURN AS \
        NOTIFY 'sensitive data ahead'");
  let rows = Db.Database.query db "SELECT * FROM patients WHERE name = 'Alice'" in
  check Alcotest.int "result returned" 1 (List.length rows);
  check Alcotest.(list string) "warning raised" [ "sensitive data ahead" ]
    (Db.Database.notifications db)

let test_deny_restrictions () =
  let db = Fixtures.healthcare_with_alice () in
  (* DENY outside a BEFORE RETURN action is an error. *)
  (match Db.Database.exec db "DENY 'nope'" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "top-level DENY should fail");
  (* BEFORE RETURN on a DML trigger is rejected. *)
  match
    Db.Database.exec db
      "CREATE TRIGGER bad ON patients AFTER INSERT BEFORE RETURN AS NOTIFY 'x'"
  with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "BEFORE RETURN on DML trigger should fail"

let test_unknown_audit_rejected () =
  let db = Fixtures.healthcare () in
  match
    Db.Database.exec db
      "CREATE TRIGGER t ON ACCESS TO nonexistent AS NOTIFY 'x'"
  with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "expected unknown-audit error"

(* --------------------------------------------------------------- *)
(* Every read is audited: IF conditions and EXPLAIN ANALYZE          *)
(* --------------------------------------------------------------- *)

let exec db sql = ignore (Db.Database.exec db sql)

(* One statement's evidence records, taken from the deferred sink: what a
   served session hands to the group-commit writer. *)
let evidence db sql =
  Db.Database.set_deferred_evidence db true;
  exec db sql;
  Db.Database.take_pending_evidence db

let accessed_ids records =
  List.filter_map
    (function Audit_log.Wal.Accessed { ids; _ } -> Some ids | _ -> None)
    records

let fired records =
  List.filter_map
    (function
      | Audit_log.Wal.Trigger_fired { trigger; _ } -> Some trigger | _ -> None)
    records

let test_if_condition_audited () =
  let db = Fixtures.healthcare_with_alice () in
  exec db "CREATE TRIGGER t ON ACCESS TO audit_alice AS NOTIFY 'alice read'";
  let r =
    evidence db
      "IF ((SELECT count(*) FROM patients WHERE patientid = 1 AND age > 30) \
       > 0) NOTIFY 'found'"
  in
  check Alcotest.(list (list string)) "the condition's ACCESSED record"
    [ [ "1" ] ] (accessed_ids r);
  check Alcotest.(list string) "the AFTER trigger fired" [ "t" ] (fired r);
  check Alcotest.(list string) "trigger, then the IF body"
    [ "alice read"; "found" ]
    (Db.Database.notifications db);
  Db.Database.clear_notifications db;
  let r =
    evidence db
      "IF ((SELECT count(*) FROM patients WHERE patientid = 2) > 0) NOTIFY \
       'bob'"
  in
  check Alcotest.(list (list string)) "no ACCESSED record" [] (accessed_ids r);
  check Alcotest.(list string) "no trigger fired" [] (fired r);
  check Alcotest.(list string) "only the IF body" [ "bob" ]
    (Db.Database.notifications db)

(* A statement fires each AFTER trigger at most once per accessed ID, and
   a SELECT's BEFORE RETURN guard sees exactly the IDs that SELECT read:
   neither IDs an earlier part of the statement read, nor a blind spot
   for the IDs it re-reads. *)
let test_if_body_fires_once () =
  let db = Fixtures.healthcare () in
  exec db Fixtures.audit_all_sql;
  exec db "CREATE TRIGGER t ON ACCESS TO audit_all AS NOTIFY 'read'";
  let cond_reads_1 body =
    "IF ((SELECT count(*) FROM patients WHERE patientid = 1) > 0) " ^ body
  in
  let r = evidence db (cond_reads_1 "SELECT name FROM patients WHERE patientid = 1") in
  check Alcotest.(list string) "one trigger record" [ "t" ] (fired r);
  check Alcotest.(list string) "one NOTIFY" [ "read" ]
    (Db.Database.notifications db);
  check Alcotest.(list (list string)) "one ACCESSED record" [ [ "1" ] ]
    (accessed_ids r);
  exec db
    "CREATE TRIGGER guard ON ACCESS TO audit_all BEFORE RETURN AS IF \
     ((SELECT count(*) FROM accessed WHERE patientid = 1) > 0) DENY 'Alice \
     is off limits'";
  Db.Database.clear_notifications db;
  let r = evidence db (cond_reads_1 "SELECT name FROM patients WHERE patientid = 2") in
  check Alcotest.(list string) "the guard ran on the body's read only"
    [ "t"; "guard"; "t" ] (fired r);
  check Alcotest.(list (list string)) "the statement's ACCESSED set"
    [ [ "1"; "2" ] ] (accessed_ids r);
  match exec db (cond_reads_1 "SELECT name FROM patients WHERE patientid = 1") with
  | exception Db.Database.Access_denied _ -> ()
  | () -> Alcotest.fail "a body SELECT re-reading the row must be denied"

let test_explain_analyze_fires () =
  let db = Fixtures.healthcare_with_alice () in
  exec db "CREATE TRIGGER t ON ACCESS TO audit_alice AS NOTIFY 'alice read'";
  let sql = "EXPLAIN ANALYZE SELECT name FROM patients WHERE patientid = 1" in
  (match Db.Database.exec db sql with
  | Db.Database.Done text ->
    check Alcotest.bool "the tree is rendered" true
      (Fixtures.contains text "actual rows=")
  | _ -> Alcotest.fail "expected the EXPLAIN ANALYZE rendering");
  check Alcotest.(list string) "the AFTER trigger fired" [ "alice read" ]
    (Db.Database.notifications db);
  exec db
    "CREATE TRIGGER guard ON ACCESS TO audit_alice BEFORE RETURN AS IF \
     ((SELECT count(*) FROM accessed) > 0) DENY 'Alice is off limits'";
  (match Db.Database.exec db sql with
  | exception Db.Database.Access_denied msg ->
    check Alcotest.string "denial message" "Alice is off limits" msg
  | _ -> Alcotest.fail "a BEFORE RETURN DENY must withhold the rendering");
  check Alcotest.(list string) "the denied run was still audited"
    [ "alice read"; "alice read" ]
    (Db.Database.notifications db)

let test_nested_explain_keeps_evidence () =
  let db = Fixtures.healthcare_with_alice () in
  exec db
    "CREATE TRIGGER t ON ACCESS TO audit_alice AS EXPLAIN ANALYZE SELECT \
     name FROM patients WHERE patientid = 2";
  let path = Filename.temp_file "nested_explain" ".wal" in
  Sys.remove path;
  ignore (Db.Database.attach_audit_log db path);
  exec db "SELECT name FROM patients WHERE patientid = 1";
  Db.Database.detach_audit_log db;
  let records, _ = Audit_log.Wal.read_all path in
  check Alcotest.(list string) "the trigger record" [ "t" ] (fired records);
  check Alcotest.(list (list string))
    "the triggering SELECT's ACCESSED record" [ [ "1" ] ]
    (accessed_ids records)

(* [new] holds the rows as the table stored them: an INT inserted into a
   FLOAT column reaches an INSERT trigger as a float, so [x / 2] divides
   as floats (an INT would truncate to 0). *)
let test_insert_new_is_coerced () =
  List.iter
    (fun storage ->
      let db = Fixtures.create ~config:{ Fixtures.config with Db.Config.storage } () in
      List.iter
        (fun sql -> ignore (Db.Database.exec db sql))
        [
          "CREATE TABLE m (id INT PRIMARY KEY, x FLOAT)";
          "CREATE TABLE copy (id INT, half FLOAT)";
          "CREATE TRIGGER cp ON m AFTER INSERT AS INSERT INTO copy SELECT id, \
           x / 2 FROM new";
          "INSERT INTO m VALUES (1, 1), (2, 3)";
        ];
      check Fixtures.tuples
        (Printf.sprintf "new.x is a float (%s)" (Table.storage_to_string storage))
        [ [| vi 1; Value.Float 0.5 |]; [| vi 2; Value.Float 1.5 |] ]
        (Fixtures.rows_sorted db "SELECT * FROM copy"))
    [ Table.Heap; Table.Columnar ]

(* DROP AUDIT EXPRESSION is refused while an ON ACCESS trigger names the
   expression: dropping it would leave a trigger that a dump cannot
   replay and that a re-created expression of the same name revives. *)
let test_drop_audit_with_dependent_trigger () =
  let db = db_with_log () in
  (match Db.Database.exec db "DROP AUDIT EXPRESSION audit_alice" with
  | exception
      Engine_core.Engine_error.Error
        (Engine_core.Engine_error.Dependency { obj; dependents }) ->
    check Alcotest.string "the refused object" "audit expression audit_alice" obj;
    check Alcotest.(list string) "the dependent trigger is named"
      [ "trigger log_alice" ] dependents
  | _ -> Alcotest.fail "DROP AUDIT EXPRESSION with a dependent trigger succeeded");
  check Alcotest.(list string) "the audit expression stays" [ "audit_alice" ]
    (Db.Database.audit_names db);
  ignore (Db.Database.exec db "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "its trigger still fires" 1 (List.length (log_rows db));
  let replayed = Db.Database.restore (Db.Database.dump db) in
  ignore (Db.Database.exec replayed "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "the dump replays with the trigger" 2
    (List.length (log_rows replayed));
  ignore (Db.Database.exec db "DROP TRIGGER log_alice");
  ignore (Db.Database.exec db "DROP AUDIT EXPRESSION audit_alice");
  check Alcotest.(list string) "dropped once the trigger is gone" []
    (Db.Database.audit_names db);
  let replayed = Db.Database.restore (Db.Database.dump db) in
  check Alcotest.(list string) "the dump replays without it" []
    (Db.Database.audit_names replayed);
  ignore
    (Db.Database.exec replayed
       "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE \
        name = 'Alice' FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  ignore (Db.Database.exec replayed "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "re-creating the expression revives no trigger" 1
    (List.length (log_rows replayed))

(* DROP TABLE is refused while a DML trigger is ON the table: dropping it
   would leave a trigger that a dump cannot replay ("trigger k references
   unknown table p") and that a re-created table of the same name would
   fire again. *)
let test_drop_table_with_dependent_trigger () =
  let db = Fixtures.create () in
  let e db sql = ignore (Db.Database.exec db sql) in
  let history db = Fixtures.rows_sorted db "SELECT * FROM hist" in
  List.iter (e db)
    [
      "CREATE TABLE p (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE hist (id INT)";
      "CREATE TRIGGER k ON p AFTER UPDATE AS INSERT INTO hist SELECT id FROM \
       new";
      "INSERT INTO p VALUES (1, 10)";
    ];
  (match Db.Database.exec db "DROP TABLE p" with
  | exception
      Engine_core.Engine_error.Error
        (Engine_core.Engine_error.Dependency { obj; dependents }) ->
    check Alcotest.string "the refused object" "table p" obj;
    check Alcotest.(list string) "the dependent trigger is named"
      [ "trigger k" ] dependents
  | _ -> Alcotest.fail "DROP TABLE with a DML trigger on it succeeded");
  e db "UPDATE p SET v = 11 WHERE id = 1";
  check Fixtures.tuples "the table and its trigger stay" [ [| vi 1 |] ]
    (history db);
  let replayed = Db.Database.restore (Db.Database.dump db) in
  e replayed "UPDATE p SET v = 12 WHERE id = 1";
  check Fixtures.tuples "the dump replays with the trigger"
    [ [| vi 1 |]; [| vi 1 |] ]
    (history replayed);
  e db "DROP TRIGGER k";
  e db "DROP TABLE p";
  let replayed = Db.Database.restore (Db.Database.dump db) in
  List.iter
    (fun db ->
      e db "CREATE TABLE p (id INT PRIMARY KEY, v INT)";
      e db "INSERT INTO p VALUES (2, 20)";
      e db "UPDATE p SET v = 21 WHERE id = 2";
      check Fixtures.tuples "re-creating the table revives no trigger"
        [ [| vi 1 |] ] (history db))
    [ db; replayed ]

(* DROP TABLE is refused while an audit expression's view reads the
   table: the view would keep its IDs and hooks on the dropped table, so
   a re-created table of the same name would be read unaudited — a false
   negative — while the audit still listed its old sensitive IDs. *)
let test_drop_table_under_audit () =
  let db = Fixtures.create () in
  let e db sql = ignore (Db.Database.exec db sql) in
  let read db =
    Db.Database.clear_notifications db;
    e db "SELECT * FROM p";
    Db.Database.notifications db
  in
  let refused what db =
    match Db.Database.exec db "DROP TABLE p" with
    | exception
        Engine_core.Engine_error.Error
          (Engine_core.Engine_error.Dependency { obj; dependents }) ->
      check Alcotest.string (what ^ ": the refused object") "table p" obj;
      check Alcotest.(list string) (what ^ ": the audit expression is named")
        [ "audit expression au" ] dependents
    | _ -> Alcotest.fail (what ^ ": DROP TABLE under an audit succeeded")
  in
  List.iter (e db)
    [
      "CREATE TABLE p (id INT PRIMARY KEY, v INT)";
      "INSERT INTO p VALUES (1, 10)";
      "CREATE AUDIT EXPRESSION au AS SELECT * FROM p WHERE v = 10 FOR \
       SENSITIVE TABLE p, PARTITION BY id";
      "CREATE TRIGGER w ON ACCESS TO au AS NOTIFY 'hit'";
    ];
  refused "with its trigger" db;
  check Alcotest.(list string) "the table stays audited" [ "hit" ] (read db);
  let replayed = Db.Database.restore (Db.Database.dump db) in
  check Alcotest.(list string) "the dump replays the audit" [ "hit" ]
    (read replayed);
  e db "DROP TRIGGER w";
  refused "after DROP TRIGGER" db;
  e db "DROP AUDIT EXPRESSION au";
  e db "DROP TABLE p";
  let replayed = Db.Database.restore (Db.Database.dump db) in
  List.iter
    (fun db ->
      check Alcotest.(list string) "no audit left" [] (Db.Database.audit_names db);
      e db "CREATE TABLE p (id INT PRIMARY KEY, v INT)";
      e db "INSERT INTO p VALUES (2, 10)";
      check Alcotest.(list string) "re-creating the table revives no trigger"
        [] (read db))
    [ db; replayed ]

(* Trigger actions bind [new], [old] and [accessed] over any table of
   that name, so a user table of that name was shadowed inside them and
   its audits probed the trigger relation: an UPDATE whose trigger read
   [new] logged an ACCESSED record for a user table [new] it never read.
   The names are reserved, in any case; the relations still bind. *)
let test_trigger_relation_names_reserved () =
  let db = Fixtures.create () in
  List.iter
    (fun name ->
      (match
         Db.Database.exec db
           (Printf.sprintf "CREATE TABLE %s (id INT PRIMARY KEY, v INT)" name)
       with
      | exception
          Engine_core.Engine_error.Error (Engine_core.Engine_error.Reserved n)
        ->
        check Alcotest.string "the refused name" name n
      | _ -> Alcotest.failf "CREATE TABLE %s succeeded" name);
      check Alcotest.bool (name ^ " is not in the catalog") false
        (Catalog.mem (Db.Database.catalog db) name))
    [ "new"; "OLD"; "Accessed" ];
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  e "INSERT INTO t VALUES (1, 1)";
  e "CREATE TRIGGER d ON t AFTER UPDATE AS INSERT INTO t SELECT id + 10, v FROM new";
  e "UPDATE t SET v = 5 WHERE id = 1";
  check Fixtures.tuples "the trigger read its new rows"
    [ [| vi 1; vi 5 |]; [| vi 11; vi 5 |] ]
    (Fixtures.rows_sorted db "SELECT * FROM t")

let suite =
  [
    Alcotest.test_case "SELECT trigger fires and logs" `Quick
      test_select_trigger_fires;
    Alcotest.test_case "no access, no firing" `Quick test_no_access_no_fire;
    Alcotest.test_case "ACCESSED contains every audited ID" `Quick
      test_accessed_contains_all_ids;
    Alcotest.test_case "ACCESSED is transient" `Quick
      test_accessed_relation_dropped_after;
    Alcotest.test_case "logical clock" `Quick test_logical_clock_increments;
    Alcotest.test_case "action joins ACCESSED (§II-C)" `Quick test_join_action;
    Alcotest.test_case "SELECT trigger cascades to DML trigger" `Quick
      test_cascade_to_dml_trigger;
    Alcotest.test_case "conditional NOTIFY threshold (§II-C)" `Quick
      test_conditional_notify;
    Alcotest.test_case "DML triggers with old/new" `Quick
      test_dml_triggers_old_new;
    Alcotest.test_case "failing DML trigger leaks no new/old" `Quick
      test_failing_dml_trigger_no_leak;
    Alcotest.test_case "nested cascade restores outer new" `Quick
      test_nested_dml_new_restored;
    Alcotest.test_case "cascade depth limit" `Quick test_depth_limit;
    Alcotest.test_case "DROP TRIGGER" `Quick test_drop_trigger;
    Alcotest.test_case "multiple triggers per audit" `Quick
      test_multiple_triggers_same_audit;
    Alcotest.test_case "unknown audit rejected" `Quick
      test_unknown_audit_rejected;
    Alcotest.test_case "BEFORE RETURN + DENY (real-time control)" `Quick
      test_before_return_deny;
    Alcotest.test_case "BEFORE RETURN warning" `Quick
      test_before_return_warn_only;
    Alcotest.test_case "DENY restrictions" `Quick test_deny_restrictions;
    Alcotest.test_case "IF conditions are audited and fire" `Quick
      test_if_condition_audited;
    Alcotest.test_case "IF body: one firing per ID, guard on its own reads"
      `Quick test_if_body_fires_once;
    Alcotest.test_case "EXPLAIN ANALYZE fires; DENY withholds it" `Quick
      test_explain_analyze_fires;
    Alcotest.test_case "nested EXPLAIN ANALYZE keeps the evidence" `Quick
      test_nested_explain_keeps_evidence;
    Alcotest.test_case "INSERT trigger reads new as stored" `Quick
      test_insert_new_is_coerced;
    Alcotest.test_case "DROP AUDIT EXPRESSION refused while a trigger names it"
      `Quick test_drop_audit_with_dependent_trigger;
    Alcotest.test_case "DROP TABLE refused while a DML trigger is on it"
      `Quick test_drop_table_with_dependent_trigger;
    Alcotest.test_case "DROP TABLE refused while an audit expression reads it"
      `Quick test_drop_table_under_audit;
    Alcotest.test_case "trigger relation names are reserved" `Quick
      test_trigger_relation_names_reserved;
  ]
