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
  check Alcotest.string "built" "hits=0 rebuilds=0  Project [v] | *Audit[au] id=#0 | Filter (#0 = $1) | Scan t"
    (plans ());
  exec db "SELECT v FROM t WHERE id = 2";
  check Alcotest.bool "hit" true (Fixtures.contains (plans ()) "hits=1 rebuilds=0 ");
  exec db "INSERT INTO t VALUES (6, 6)";
  exec db "SELECT v FROM t WHERE id = 3";
  check Alcotest.bool "rebuilt after the row count changed" true
    (Fixtures.contains (plans ()) "hits=1 rebuilds=1 (last: row count)");
  exec db "CREATE INDEX t_v ON t (v)";
  exec db "SELECT v FROM t WHERE id = 4";
  check Alcotest.bool "rebuilt after CREATE INDEX" true
    (Fixtures.contains (plans ()) "hits=1 rebuilds=2 (last: index set)");
  exec db "DROP TRIGGER w";
  exec db "SELECT v FROM t WHERE id = 5";
  let s = shape_of db "Scan t" in
  check Alcotest.(option string) "DROP TRIGGER" (Some "audit/trigger epoch") s.reason;
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

(* Trigger bodies read [accessed] and [new], tables that exist only while
   the body runs: their reads bypass the cache, so no shape holds (or
   names) a dropped temp table, and each firing sees its own rows. *)
let test_trigger_temp_table () =
  let db = Fixtures.create () in
  keyed_table db ~n:10;
  exec db "DROP TRIGGER w";
  exec db "CREATE TABLE log (id INT)";
  exec db "CREATE TRIGGER w ON ACCESS TO au AS INSERT INTO log SELECT id FROM accessed";
  exec db "CREATE TRIGGER u ON t AFTER UPDATE AS INSERT INTO log SELECT v FROM new";
  exec db "SELECT v FROM t WHERE id = 1";
  exec db "SELECT v FROM t WHERE id = 8";
  exec db "SELECT v FROM t WHERE id = 2";
  exec db "UPDATE t SET v = 40 WHERE id = 3";
  exec db "UPDATE t SET v = 50 WHERE id = 4";
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " is gone") false
        (Catalog.mem (D.catalog db) name);
      check Alcotest.int ("no shape reads " ^ name) 0
        (List.length
           (List.filter
              (fun (s : D.shape_info) -> Fixtures.contains s.shape ("Scan " ^ name))
              (D.plan_shapes db))))
    [ "accessed"; "new" ];
  check Fixtures.tuples "each firing logged its own rows"
    [ [| Value.Int 1 |]; [| Value.Int 8 |]; [| Value.Int 40 |]; [| Value.Int 50 |] ]
    (Fixtures.rows_sorted db "SELECT id FROM log");
  check Alcotest.int "the UPDATEs' row reads share a shape" 1
    (shape_of db "Project [id, v]").hits

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
    (Some "audit/trigger epoch") (shape_of s2 "Scan t").reason;
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
    Alcotest.test_case "trigger temp tables are never served" `Quick
      test_trigger_temp_table;
    Alcotest.test_case "sessions share the epoch, not shapes" `Quick
      test_sessions_share_the_epoch;
    Alcotest.test_case "Warn alarms on every execution" `Quick
      test_warn_alarms_per_execution;
  ]
