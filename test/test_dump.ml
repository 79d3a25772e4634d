(** Dump / restore and the statement pretty-printer: a dumped database
    restores to an equivalent one — same rows, same audit expressions, same
    trigger behaviour. *)


let check = Alcotest.check

let test_roundtrip_data () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "INSERT INTO patients VALUES (6, 'O''Brien', NULL, 12345)");
  let db' = Db.Database.restore ~config:Fixtures.config (Db.Database.dump db) in
  List.iter
    (fun sql ->
      check Fixtures.tuples sql
        (Fixtures.rows_sorted db sql)
        (Fixtures.rows_sorted db' sql))
    [
      "SELECT * FROM patients";
      "SELECT * FROM disease";
      "SELECT * FROM departments";
    ]

let test_roundtrip_types () =
  let db = Fixtures.create () in
  ignore
    (Db.Database.exec db
       "CREATE TABLE t (i INT PRIMARY KEY, f FLOAT, s VARCHAR, b BOOL, d \
        DATE)");
  ignore
    (Db.Database.exec db
       "INSERT INTO t VALUES (1, 2.5, 'it''s', TRUE, DATE '1995-06-17'), \
        (2, NULL, NULL, FALSE, NULL)");
  let db' = Db.Database.restore ~config:Fixtures.config (Db.Database.dump db) in
  check Fixtures.tuples "typed roundtrip"
    (Fixtures.rows_sorted db "SELECT * FROM t")
    (Fixtures.rows_sorted db' "SELECT * FROM t");
  (* Primary key survived: duplicate insert must fail. *)
  match Db.Database.exec db' "INSERT INTO t VALUES (1, 0, 'x', TRUE, NULL)" with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.fail "primary key lost in roundtrip"

let test_roundtrip_audit_and_triggers () =
  let db = Fixtures.healthcare_with_alice () in
  ignore (Db.Database.exec db "CREATE TABLE log (patientid INT)");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t1 ON ACCESS TO audit_alice AS INSERT INTO log \
        SELECT patientid FROM accessed");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t2 ON log AFTER INSERT AS BEGIN NOTIFY 'logged'; IF \
        ((SELECT count(*) FROM log) > 10) NOTIFY 'many'; END");
  let db' = Db.Database.restore ~config:Fixtures.config (Db.Database.dump db) in
  check Alcotest.(list string) "audit expressions restored" [ "audit_alice" ]
    (Db.Database.audit_names db');
  (* The whole trigger cascade works on the restored database. *)
  ignore (Db.Database.exec db' "SELECT * FROM patients WHERE name = 'Alice'");
  check Alcotest.int "SELECT trigger fired" 1
    (List.length (Db.Database.query db' "SELECT * FROM log"));
  check Alcotest.(list string) "cascaded DML trigger fired" [ "logged" ]
    (Db.Database.notifications db')

let test_statement_printer_reparses () =
  List.iter
    (fun sql ->
      let s1 = Sql.Parser.statement sql in
      let printed = Sql.Ast.statement_to_string s1 in
      let s2 =
        try Sql.Parser.statement printed
        with e ->
          Alcotest.failf "reparse of %S failed: %s" printed
            (Printexc.to_string e)
      in
      if s1 <> s2 then Alcotest.failf "statement fixpoint failed: %s" printed)
    [
      "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR, c DATE)";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)";
      "UPDATE t SET a = a + 1 WHERE b LIKE 'x%'";
      "DELETE FROM t WHERE a IN (1, 2, 3)";
      "CREATE AUDIT EXPRESSION a1 AS SELECT * FROM t WHERE a > 0 FOR \
       SENSITIVE TABLE t, PARTITION BY a";
      "CREATE TRIGGER tr ON ACCESS TO a1 BEFORE RETURN AS DENY 'no'";
      "CREATE TRIGGER tr2 ON t AFTER UPDATE AS BEGIN NOTIFY 'a'; NOTIFY \
       'b'; END";
      "DROP TRIGGER tr";
      "DROP AUDIT EXPRESSION a1";
      "EXPLAIN SELECT a FROM t WHERE b IS NOT NULL";
    ]

let test_explain () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER t ON ACCESS TO audit_alice AS NOTIFY 'x'");
  match
    Db.Database.exec db
      "EXPLAIN SELECT name FROM patients p, disease d WHERE p.patientid = \
       d.patientid"
  with
  | Db.Database.Done plan ->
    let contains = Fixtures.contains plan in
    check Alcotest.bool "shows the audit operator" true
      (contains "AuditProbe[audit_alice]");
    check Alcotest.bool "shows the physical join" true (contains "HashJoin");
    check Alcotest.bool "shows cardinality estimates" true
      (contains "est rows=")
  | _ -> Alcotest.fail "EXPLAIN should return plan text"

let suite =
  [
    Alcotest.test_case "data roundtrip" `Quick test_roundtrip_data;
    Alcotest.test_case "typed roundtrip + keys" `Quick test_roundtrip_types;
    Alcotest.test_case "audits and triggers roundtrip" `Quick
      test_roundtrip_audit_and_triggers;
    Alcotest.test_case "statement printer fixpoint" `Quick
      test_statement_printer_reparses;
    Alcotest.test_case "EXPLAIN" `Quick test_explain;
  ]
