(** The statement-shape cache of [Database.prepare]: what a hit serves,
    what rebuilds a shape, and what a hit must still do per statement. *)

open Storage
module D = Db.Database

let check = Alcotest.check
let exec db sql = ignore (D.exec db sql)

(* The cached shape whose placed plan mentions [needle]. *)
let shape_of db needle =
  match
    List.filter
      (fun (s : D.shape_info) -> Fixtures.contains s.shape needle)
      (D.plan_shapes db)
  with
  | [ s ] -> s
  | ss ->
    Alcotest.failf "%d shapes mention %S:\n%s" (List.length ss) needle
      (String.concat "\n" (List.map (fun (s : D.shape_info) -> s.shape) ss))

let keyed_table db ~n =
  exec db "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  exec db
    ("INSERT INTO t VALUES "
    ^ String.concat ", "
        (List.init n (fun i -> Printf.sprintf "(%d, %d)" (i + 1) ((i + 1) mod 7))));
  exec db
    "CREATE AUDIT EXPRESSION au AS SELECT * FROM t WHERE v = 1 FOR \
     SENSITIVE TABLE t, PARTITION BY id";
  exec db "CREATE TRIGGER w ON ACCESS TO au AS NOTIFY 'hit'"

let test_point_reads_share_one_shape () =
  let db = Fixtures.create () in
  keyed_table db ~n:1000;
  for k = 1 to 1000 do
    check Fixtures.tuples
      (Printf.sprintf "row %d" k)
      [ [| Value.Int (k mod 7) |] ]
      (D.query db (Printf.sprintf "SELECT v FROM t WHERE id = %d" k))
  done;
  let s = shape_of db "Scan t" in
  check Alcotest.int "hits" 999 s.hits;
  check Alcotest.int "rebuilds" 0 s.rebuilds;
  check Alcotest.bool "literal lifted" true (Fixtures.contains s.shape "$1");
  check Alcotest.int "one shape" 1 (List.length (D.plan_shapes db))

(* \plans over a hit, an invalidation and the rebuild it causes. *)
let test_plans_counters () =
  let db = Fixtures.create () in
  keyed_table db ~n:5;
  let session = Server.Session.of_db db in
  let plans () =
    match Server.Session.command session [ "\\plans" ] with
    | Some out -> out
    | None -> Alcotest.fail "\\plans is not a session command"
  in
  exec db "SELECT v FROM t WHERE id = 1";
  check Alcotest.string "built"
    "hits=0 rebuilds=0 analysis=pending  Project [v] | *Audit[au] id=#0 | \
     Filter (#0 = $1) | Scan t"
    (plans ());
  exec db "SELECT v FROM t WHERE id = 2";
  check Alcotest.bool "hit, classified" true
    (Fixtures.contains (plans ()) "hits=1 rebuilds=0 analysis=shape ");
  exec db "INSERT INTO t VALUES (6, 6)";
  exec db "SELECT v FROM t WHERE id = 3";
  check Alcotest.bool "rebuilt after the row count changed" true
    (Fixtures.contains (plans ()) "hits=1 rebuilds=1 (last: row count)");
  exec db "CREATE INDEX t_v ON t (v)";
  exec db "SELECT v FROM t WHERE id = 4";
  check Alcotest.bool "rebuilt after CREATE INDEX" true
    (Fixtures.contains (plans ()) "hits=1 rebuilds=2 (last: catalog epoch)");
  exec db "DROP TRIGGER w";
  exec db "SELECT v FROM t WHERE id = 5";
  let s = shape_of db "Scan t" in
  check Alcotest.(option string) "DROP TRIGGER" (Some "catalog epoch") s.reason;
  check Alcotest.bool "unwatched: no probe" false (Fixtures.contains s.shape "Audit");
  D.set_heuristic db Audit_core.Placement.Leaf;
  exec db "SELECT v FROM t WHERE id = 1";
  check Alcotest.(option string) "\\heuristic" (Some "session setting")
    (shape_of db "Scan t").reason;
  exec db "SELECT v FROM t WHERE id = 2";
  check Alcotest.int "hit again" 2 (shape_of db "Scan t").hits

(* Certificates depend on the literals: the second statement has the
   first one's shape, and its probe is elided under a certificate of its
   own that replays. *)
let test_same_shape_other_certificate () =
  let config =
    { Fixtures.config with Db.Config.elision = Db.Config.Elide_certified }
  in
  let db = Fixtures.create ~config () in
  exec db "CREATE TABLE customer (c_custkey INT PRIMARY KEY, c_mktsegment VARCHAR)";
  exec db
    "INSERT INTO customer VALUES (1, 'BUILDING'), (2, 'AUTOMOBILE'), (3, \
     'BUILDING'), (4, 'MACHINERY')";
  exec db
    "CREATE AUDIT EXPRESSION audit_customer AS SELECT * FROM customer WHERE \
     c_mktsegment = 'BUILDING' FOR SENSITIVE TABLE customer, PARTITION BY \
     c_custkey";
  exec db "CREATE TRIGGER w ON ACCESS TO audit_customer AS NOTIFY 'hit'";
  let read segment =
    D.query db
      (Printf.sprintf
         "SELECT c_custkey FROM customer WHERE c_mktsegment = '%s'" segment)
  in
  check Fixtures.tuples "BUILDING" [ [| Value.Int 1 |]; [| Value.Int 3 |] ]
    (List.sort Tuple.compare (read "BUILDING"));
  check Alcotest.bool "BUILDING: probe kept" true
    (List.for_all
       (fun (d : Analysis.Independence.decision) -> d.certificate = None)
       (D.last_elision db));
  check Fixtures.tuples "AUTOMOBILE" [ [| Value.Int 2 |] ] (read "AUTOMOBILE");
  check Alcotest.int "same shape, a hit" 1 (shape_of db "Scan customer").hits;
  (match D.last_elision db with
  | [ { certificate = Some c; _ } ] ->
    check Alcotest.bool "certificate replays" true
      (Analysis.Certificate.validate c = Ok ());
    check Alcotest.bool "witness is the segment" true
      (Fixtures.contains (Analysis.Certificate.summary c) "AUTOMOBILE")
  | ds -> Alcotest.failf "expected one certified probe, got %d decisions" (List.length ds));
  check Alcotest.(list (pair string (list Fixtures.value))) "nothing accessed" []
    (D.last_accessed db);
  let p =
    D.prepare_sql db
      "SELECT c_custkey FROM customer WHERE c_mktsegment = 'MACHINERY'"
  in
  check Alcotest.bool "the probe is gone from the plan that runs" true
    (Plan.Physical.audits p.phys = []);
  check Alcotest.int "verified with its certificate" 0
    (List.length (D.violations p))

(* The segment audit over a customer table with a unique key, so every
   column is a witness candidate, and a second table to join it to. *)
let segment_db () =
  let config =
    { Fixtures.config with Db.Config.elision = Db.Config.Elide_certified }
  in
  let db = Fixtures.create ~config () in
  exec db
    "CREATE TABLE customer (c_custkey INT PRIMARY KEY, c_mktsegment VARCHAR, \
     c_nationkey INT)";
  exec db
    "INSERT INTO customer VALUES (1, 'BUILDING', 1), (2, 'AUTOMOBILE', 2), \
     (3, 'BUILDING', 3), (4, 'MACHINERY', 1)";
  exec db "CREATE TABLE segment (s_name VARCHAR, s_rank INT)";
  exec db "INSERT INTO segment VALUES ('BUILDING', 1), ('AUTOMOBILE', 2)";
  exec db
    "CREATE AUDIT EXPRESSION audit_customer AS SELECT * FROM customer WHERE \
     c_mktsegment = 'BUILDING' FOR SENSITIVE TABLE customer, PARTITION BY \
     c_custkey";
  exec db "CREATE TRIGGER w ON ACCESS TO audit_customer AS NOTIFY 'hit'";
  db

let certified db =
  List.exists
    (fun (d : Analysis.Independence.decision) -> d.certificate <> None)
    (D.last_elision db)

(* One shape whose literal decides certification: its statements are
   analysed one by one, so one filling is elided and another probed. *)
let test_literal_decides () =
  let db = segment_db () in
  let read segment =
    Printf.sprintf "SELECT c_custkey FROM customer WHERE c_mktsegment = '%s'"
      segment
  in
  exec db (read "MACHINERY");
  let p = D.prepare_sql db (read "AUTOMOBILE") in
  check Alcotest.bool "AUTOMOBILE: certified and elided" true
    (p.certificates <> [] && Plan.Physical.audits p.phys = []);
  exec db (read "BUILDING");
  check Alcotest.bool "BUILDING: probed" false (certified db);
  check Alcotest.(list (pair string (list Fixtures.value))) "BUILDING: accessed"
    [ ("audit_customer", [ Value.Int 1; Value.Int 3 ]) ]
    (List.map (fun (a, ids) -> (a, List.sort Value.compare_total ids))
       (D.last_accessed db));
  let s = shape_of db "Scan customer" in
  check Alcotest.int "both are hits of one entry" 2 s.hits;
  check Alcotest.string "analysed per statement"
    "statement (audit_customer.c_mktsegment)" s.analysis

(* A key lookup, for a read and for the rows of an UPDATE, is the same
   verdict whatever the key: the shape's hits skip the analysis, and
   forcing their decisions gives what the analysis of the statement
   gives. *)
let test_key_lookups_are_fixed () =
  let db = segment_db () in
  let read k = Printf.sprintf "SELECT * FROM customer WHERE c_custkey = %d" k in
  exec db (read 1);
  exec db (read 2);
  check Alcotest.string "point read" "shape" (shape_of db "Scan customer").analysis;
  let p = D.prepare_sql db (read 3) in
  check Alcotest.bool "no analysis ran" false (Lazy.is_val p.decisions);
  check Alcotest.bool "the probe runs" true (p.phys == p.lowered && p.certificates = []);
  let oracle = D.prepare_plan db (D.plan_sql db (read 3)) in
  check Alcotest.bool "forced decisions = the statement's analysis" true
    (Lazy.force p.decisions = Lazy.force oracle.decisions
    && Lazy.force p.decisions <> []);
  exec db (read 3);
  check Alcotest.int "the hit still audits" 1 (List.length (D.last_accessed db));
  let db = segment_db () in
  exec db "UPDATE customer SET c_nationkey = 5 WHERE c_custkey = 1";
  exec db "UPDATE customer SET c_nationkey = 6 WHERE c_custkey = 2";
  check Alcotest.string "update by key" "shape"
    (shape_of db "Scan customer").analysis

(* Shapes where some literals certify: a column the query constrains
   twice, a disjunction or a negation on the audited column, and a slot
   that reaches the audited column through an equi-join. Each is
   analysed per statement, and its second statement is certified. *)
let test_literals_that_certify () =
  List.iter
    (fun (sql, column, first, second) ->
      let db = segment_db () in
      exec db (sql first);
      exec db (sql second);
      check Alcotest.string (sql second)
        (Printf.sprintf "statement (audit_customer.%s)" column)
        (shape_of db "Scan customer").analysis;
      check Alcotest.bool (sql second ^ ": certified") true (certified db))
    [
      ( (fun (a, b) ->
          Printf.sprintf
            "SELECT c_custkey FROM customer WHERE c_nationkey = %s AND \
             c_nationkey = %s"
            a b),
        "c_nationkey",
        ("1", "3"),
        ("1", "2") );
      ( (fun (a, b) ->
          Printf.sprintf
            "SELECT c_custkey FROM customer WHERE c_mktsegment = '%s' OR \
             c_mktsegment = '%s'"
            a b),
        "c_mktsegment",
        ("BUILDING", "MACHINERY"),
        ("AUTOMOBILE", "MACHINERY") );
      ( (fun (a, _) ->
          Printf.sprintf
            "SELECT c_custkey FROM customer WHERE NOT (c_mktsegment = '%s')" a),
        "c_mktsegment",
        ("MACHINERY", ""),
        ("BUILDING", "") );
      ( (fun (a, _) ->
          Printf.sprintf
            "SELECT c.c_custkey FROM customer c, segment s WHERE \
             c.c_mktsegment = s.s_name AND s.s_name = '%s'"
            a),
        "c_mktsegment",
        ("BUILDING", ""),
        ("AUTOMOBILE", "") );
    ]

(* Trigger bodies read [accessed] and [new], relations bound in the
   session's scope for one firing: their reads are served from their
   shapes, each firing still logs its own rows, a firing whose relation
   holds another number of rows rebuilds, and neither name ever reaches
   the shared catalog. *)
let test_trigger_bodies_served () =
  let db = Fixtures.create () in
  keyed_table db ~n:10;
  exec db "DROP TRIGGER w";
  exec db "CREATE TABLE log (id INT)";
  exec db "CREATE TRIGGER w ON ACCESS TO au AS INSERT INTO log SELECT id FROM accessed";
  exec db "CREATE TRIGGER u ON t AFTER UPDATE AS INSERT INTO log SELECT v FROM new";
  let names = ref [] in
  let note () = names := Catalog.names (D.catalog db) @ !names in
  exec db "SELECT v FROM t WHERE id = 1";
  exec db "SELECT v FROM t WHERE id = 8";
  exec db "SELECT v FROM t WHERE id = 2";
  note ();
  exec db "UPDATE t SET v = 40 WHERE id = 3";
  exec db "UPDATE t SET v = 50 WHERE id = 4";
  exec db "UPDATE t SET v = 60 WHERE id = 5";
  note ();
  check Alcotest.int "accessed: served" 1 (shape_of db "Scan accessed").hits;
  check Alcotest.int "new: served" 2 (shape_of db "Scan new").hits;
  check Fixtures.tuples "each firing logged its own rows"
    [
      [| Value.Int 1 |]; [| Value.Int 8 |]; [| Value.Int 40 |];
      [| Value.Int 50 |]; [| Value.Int 60 |];
    ]
    (Fixtures.rows_sorted db "SELECT id FROM log");
  exec db "UPDATE t SET v = 70 WHERE id = 6 OR id = 7";
  note ();
  let s = shape_of db "Scan new" in
  check Alcotest.(option string) "two rows: rebuilt" (Some "row count") s.reason;
  check Alcotest.int "hits kept" 2 s.hits;
  check Fixtures.tuples "both rows logged"
    [ [| Value.Int 70 |]; [| Value.Int 70 |] ]
    (Fixtures.rows_sorted db "SELECT id FROM log WHERE id = 70");
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " is never in the catalog") false
        (List.mem name !names || Catalog.mem (D.catalog db) name))
    [ "accessed"; "new" ];
  check Alcotest.int "the UPDATEs' row reads share a shape" 2
    (shape_of db "Project [id, v] | Filter (#0 = $1)").hits

(* Two sessions share the catalog and the epoch, not their shapes: DDL
   in one rebuilds the other's. *)
let test_sessions_share_the_epoch () =
  let db = Fixtures.create () in
  keyed_table db ~n:5;
  let s2 = D.create_session ~session_id:2 db in
  exec s2 "SELECT v FROM t WHERE id = 1";
  check Alcotest.int "own cache" 0 (List.length (D.plan_shapes db));
  exec db "DROP TRIGGER w";
  exec s2 "SELECT v FROM t WHERE id = 2";
  check Alcotest.(option string) "rebuilt in the other session"
    (Some "catalog epoch") (shape_of s2 "Scan t").reason;
  check Alcotest.bool "unwatched: no probe" false
    (Fixtures.contains (shape_of s2 "Scan t").shape "Audit")

(* Warn mode reports a plan's violations on every execution, cached or
   not: a hit must not swallow them. The verdict of a shape is reused
   only when it is clean, so a shape with a violation is verified per
   statement; this pins that both paths agree statement by statement. *)
let test_warn_alarms_per_execution () =
  let config = { Fixtures.config with Db.Config.verify = Db.Config.Warn } in
  let db = Fixtures.create ~config () in
  keyed_table db ~n:5;
  List.iter
    (fun h ->
      D.set_heuristic db h;
      for k = 1 to 3 do
        let sql = Printf.sprintf "SELECT v FROM t WHERE id = %d LIMIT 1" k in
        let before = List.length (D.alarms db) in
        exec db sql;
        let raised = List.length (D.alarms db) - before in
        let oracle = D.violations (D.prepare_plan db (D.plan_sql db sql)) in
        check Alcotest.int
          (Printf.sprintf "%s alarms (%s)" sql
             (Audit_core.Placement.heuristic_name h))
          (List.length oracle) raised
      done)
    Audit_core.Placement.[ Leaf; Hcn; Highest ]

let suite =
  [
    Alcotest.test_case "1000 point reads: one shape, 999 hits" `Quick
      test_point_reads_share_one_shape;
    Alcotest.test_case "\\plans: hit, invalidation, rebuild" `Quick
      test_plans_counters;
    Alcotest.test_case "same shape, other literal: own certificate" `Quick
      test_same_shape_other_certificate;
    Alcotest.test_case "a literal decides: analysed per statement" `Quick
      test_literal_decides;
    Alcotest.test_case "key lookups: one verdict per shape" `Quick
      test_key_lookups_are_fixed;
    Alcotest.test_case "literals that certify: per statement" `Quick
      test_literals_that_certify;
    Alcotest.test_case "trigger bodies are served by shape" `Quick
      test_trigger_bodies_served;
    Alcotest.test_case "sessions share the epoch, not shapes" `Quick
      test_sessions_share_the_epoch;
    Alcotest.test_case "Warn alarms on every execution" `Quick
      test_warn_alarms_per_execution;
  ]
