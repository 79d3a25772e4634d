(** The failure-atomic audit pipeline: fail-closed/fail-open policies,
    query guards, fault injection, and the seeded fault matrix. *)

open Storage
module Wal = Audit_log.Wal
module F = Engine_core.Faultkit
module E = Engine_core.Engine_error

let fresh_path name =
  let p = Filename.temp_file ("rob_" ^ name) ".wal" in
  Sys.remove p;
  p

(** The engines the fault tests run on: the row oracle and the compiled
    engine that serves. *)
let engines = [ ("row", `Row); ("compiled", `Compiled) ]

(** Healthcare DB with the Alice audit watched by a trigger and a durable
    audit log attached. *)
let logged_db ?(policy = Wal.Fail_closed) ?exec name =
  let db = Fixtures.healthcare_with_alice () in
  Option.iter (Db.Database.set_exec_mode db) exec;
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  let path = fresh_path name in
  let r = Db.Database.attach_audit_log db ~policy path in
  Alcotest.(check int) "fresh log" 0 r.Wal.valid_records;
  (db, path)

let rows_of = function
  | Db.Database.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let accessed_ids ?(complete_only = true) records =
  List.concat_map
    (function
      | Wal.Accessed { ids; complete; _ } when complete || not complete_only ->
        ids
      | _ -> [])
    records

let expect_cancelled expected f =
  match f () with
  | _ -> Alcotest.fail "expected a cancellation"
  | exception E.Error (E.Cancelled { reason; _ }) ->
    Alcotest.(check bool) "cancellation reason" true (reason = expected)

let check_clean_query db =
  Alcotest.(check int)
    "next query runs clean" 5
    (List.length (rows_of (Db.Database.exec db "SELECT * FROM patients")))

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

let test_fail_closed_withholds () =
  let db, path = logged_db "closed" in
  F.arm (Db.Database.faults db) [ F.Log_io { at = 1; fault = F.Enospc } ];
  (match Db.Database.exec db "SELECT * FROM patients" with
  | _ -> Alcotest.fail "fail-closed must withhold results on a log failure"
  | exception E.Error (E.Log_io _) -> ());
  F.arm (Db.Database.faults db) [];
  check_clean_query db;
  (* The clean query's audit evidence made it to disk. *)
  let records, r = Wal.read_all path in
  Alcotest.(check bool) "log not corrupt" false r.Wal.corrupt;
  Alcotest.(check bool)
    "Alice's access is on disk" true
    (List.mem "1" (accessed_ids records))

let test_fail_open_alarms () =
  let db, _path = logged_db ~policy:Wal.Fail_open "open" in
  F.arm (Db.Database.faults db) [ F.Log_io { at = 1; fault = F.Enospc } ];
  Alcotest.(check int)
    "fail-open releases the rows" 5
    (List.length (rows_of (Db.Database.exec db "SELECT * FROM patients")));
  Alcotest.(check bool)
    "an alarm records the loss" true
    (List.exists
       (fun a ->
         let has sub =
           let rec go i =
             i + String.length sub <= String.length a
             && (String.sub a i (String.length sub) = sub || go (i + 1))
           in
           go 0
         in
         has "audit record lost")
       (Db.Database.alarms db))

(* ------------------------------------------------------------------ *)
(* Query guards                                                        *)
(* ------------------------------------------------------------------ *)

let test_timeout () =
  let db, _ = logged_db "timeout" in
  Db.Database.set_timeout db (Some 1e-9);
  expect_cancelled E.Timeout (fun () ->
      Db.Database.exec db "SELECT * FROM patients");
  Db.Database.set_timeout db None;
  check_clean_query db

let test_row_budget_flushes_partial () =
  let db, path = logged_db "rowbudget" in
  Db.Database.set_row_budget db (Some 2);
  expect_cancelled E.Row_budget (fun () ->
      Db.Database.exec db "SELECT * FROM patients");
  Alcotest.(check int) "depth reset" 0 (Db.Database.trigger_depth db);
  Db.Database.set_row_budget db None;
  (* The pipeline saw Alice (row 1) before the budget tripped at row 3:
     her access must be flushed as a partial record before the raise. *)
  let records, _ = Wal.read_all path in
  let partial =
    List.exists
      (function
        | Wal.Accessed { ids; complete = false; _ } -> List.mem "1" ids
        | _ -> false)
      records
  in
  Alcotest.(check bool) "partial ACCESSED flushed on cancel" true partial;
  check_clean_query db

(* UPDATE and DELETE select their rows with an ordinary read, so the
   guards bound it; a cancelled read changes no row. *)
let test_row_budget_cancels_dml () =
  let db, _ = logged_db "dmlbudget" in
  let before = Fixtures.rows_sorted db "SELECT * FROM patients" in
  Db.Database.set_row_budget db (Some 2);
  expect_cancelled E.Row_budget (fun () ->
      Db.Database.exec db "UPDATE patients SET age = 0 WHERE age > 0");
  expect_cancelled E.Row_budget (fun () ->
      Db.Database.exec db "DELETE FROM patients WHERE age > 0");
  Db.Database.set_row_budget db None;
  Alcotest.(check Fixtures.tuples)
    "no row changed" before
    (Fixtures.rows_sorted db "SELECT * FROM patients")

let test_mem_budget () =
  let db, _ = logged_db "membudget" in
  Db.Database.set_mem_budget db (Some 1);
  expect_cancelled E.Memory_budget (fun () ->
      Db.Database.exec db "SELECT * FROM patients ORDER BY age");
  Db.Database.set_mem_budget db None;
  check_clean_query db

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_operator_fault () =
  List.iter
    (fun (name, exec) ->
      let db, _ = logged_db ~exec ("opfault_" ^ name) in
      F.arm (Db.Database.faults db) [ F.Op_next { op = "scan"; at = 2 } ];
      (match Db.Database.exec db "SELECT * FROM patients" with
      | _ -> Alcotest.fail (name ^ ": armed operator fault must fire")
      | exception E.Error (E.Fault _) -> ());
      Alcotest.(check (list string))
        (name ^ ": fired at the scan's second getNext")
        [ F.point_to_string (F.Op_next { op = "scan"; at = 2 }) ]
        (F.fired (Db.Database.faults db));
      Alcotest.(check int) "depth reset" 0 (Db.Database.trigger_depth db);
      F.arm (Db.Database.faults db) [];
      check_clean_query db)
    engines

let test_trigger_body_fault () =
  List.iter
    (fun (name, exec) ->
      let db, _ = logged_db ~exec ("trfault_" ^ name) in
      F.arm (Db.Database.faults db) [ F.Trigger_body { name = "watch" } ];
      (match Db.Database.exec db "SELECT * FROM patients" with
      | _ -> Alcotest.fail (name ^ ": armed trigger fault must fire")
      | exception E.Error (E.Fault _) -> ());
      Alcotest.(check int)
        (name ^ ": fault inside a trigger body leaves depth = 0")
        0
        (Db.Database.trigger_depth db);
      F.arm (Db.Database.faults db) [];
      check_clean_query db;
      Alcotest.(check int)
        (name ^ ": depth still 0 after the clean query")
        0
        (Db.Database.trigger_depth db))
    engines

(* ------------------------------------------------------------------ *)
(* The seeded fault matrix (ISSUE acceptance property)                 *)
(* ------------------------------------------------------------------ *)

(* For every seeded fault plan, on both engines and for a join and a
   LIMIT over a correlated EXISTS: if the statement released rows to the
   client, the recovered audit log must contain complete ACCESSED
   record(s) covering the sensitive IDs of those rows; and recovery must
   never be corrupt nor lose intact records, whatever the fault did. Each
   query draws its fault plans from the labels its plan contains. *)
let matrix_queries =
  let ops = [ "Scan"; "Filter"; "Join"; "Project"; "Audit" ] in
  [
    ( "SELECT p.patientid, d.disease FROM patients p, disease d WHERE \
       p.patientid = d.patientid",
      ops );
    ( "SELECT p.patientid, p.name FROM patients p WHERE EXISTS (SELECT 1 \
       FROM disease d WHERE d.patientid <= p.patientid AND d.disease <> \
       'flu') LIMIT 3",
      ops @ [ "Limit"; "Apply" ] );
  ]

let fault_matrix_case ~engine ~exec ~qi ~query ~ops seed =
  let ctx msg =
    Printf.sprintf "%s, query %d, seed %d: %s" engine qi seed msg
  in
  let db = Fixtures.healthcare () in
  Db.Database.set_exec_mode db exec;
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch_all ON ACCESS TO audit_all AS NOTIFY 'hit'");
  let path = fresh_path (Printf.sprintf "matrix_%s%d_%02d" engine qi seed) in
  ignore (Db.Database.attach_audit_log db path);
  let plan = F.random_plan ~seed ~ops in
  F.arm (Db.Database.faults db) plan;
  let released =
    match Db.Database.exec db query with
    | Db.Database.Rows { rows; _ } ->
      List.map (fun t -> Value.to_string (Tuple.get t 0)) rows
    | _ -> Alcotest.fail (ctx "expected a row result")
    | exception (E.Error _ | Db.Database.Db_error _) -> []
  in
  Alcotest.(check int) (ctx "trigger depth reset") 0
    (Db.Database.trigger_depth db);
  F.arm (Db.Database.faults db) [];
  Db.Database.detach_audit_log db;
  let records, r = Wal.read_all path in
  Alcotest.(check bool) (ctx "recovered log is not corrupt") false
    r.Wal.corrupt;
  (* Recovery is idempotent: reopening drops nothing. *)
  let w, r2 = Wal.open_ path in
  Wal.close w;
  Alcotest.(check int)
    (ctx "recovery never drops intact records")
    r.Wal.valid_records r2.Wal.valid_records;
  (* The no-false-negatives property. *)
  let logged = accessed_ids records in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (ctx (Printf.sprintf "released row %s is in the recovered log" id))
        true (List.mem id logged))
    released;
  (* And the session survives whatever the fault plan did. *)
  Alcotest.(check int)
    (ctx "next statement runs clean")
    5
    (List.length (rows_of (Db.Database.exec db "SELECT * FROM patients")))

let test_fault_matrix () =
  List.iter
    (fun (engine, exec) ->
      List.iteri
        (fun qi (query, ops) ->
          for seed = 0 to 39 do
            fault_matrix_case ~engine ~exec ~qi ~query ~ops seed
          done)
        matrix_queries)
    engines

(* ------------------------------------------------------------------ *)
(* Session repair                                                      *)
(* ------------------------------------------------------------------ *)

let test_shell_errors_are_db_errors () =
  (* Parse and bind failures surface as Db_error with classified
     prefixes, so front-ends can print them without dying. *)
  let db = Fixtures.healthcare () in
  let expect_prefix prefix sql =
    match Db.Database.exec db sql with
    | _ -> Alcotest.fail ("expected an error for: " ^ sql)
    | exception Db.Database.Db_error m ->
      let p = String.length prefix in
      Alcotest.(check string)
        (prefix ^ " classification") prefix
        (if String.length m >= p then String.sub m 0 p else m)
  in
  expect_prefix "parse error" "FROB THE KNOB";
  expect_prefix "parse error" "SELECT * FROM";
  expect_prefix "bind error" "SELECT nope FROM patients";
  expect_prefix "bind error" "SELECT * FROM no_such_table";
  check_clean_query db

(* ------------------------------------------------------------------ *)
(* Untrusted SQL text                                                 *)
(* ------------------------------------------------------------------ *)

(* One statement of every kind the front end accepts, over the healthcare
   schema. *)
let fuzz_seeds =
  [|
    "SELECT p.name, d.disease FROM patients p JOIN disease d ON p.patientid \
     = d.patientid WHERE p.age BETWEEN 20 AND 40 ORDER BY p.name LIMIT 3";
    "SELECT zip, count(*), avg(age) FROM patients GROUP BY zip HAVING \
     count(*) > 1";
    "SELECT name FROM patients WHERE patientid IN (SELECT patientid FROM \
     disease WHERE disease LIKE 'c%') UNION SELECT name FROM patients WHERE \
     NOT (age <> 22)";
    "SELECT TOP 2 name, CASE WHEN age > 30 THEN 'old' ELSE 'young' END FROM \
     patients WHERE EXISTS (SELECT * FROM departments t WHERE t.patientid = \
     patients.patientid) AND zip IS NOT NULL";
    "SELECT DISTINCT -age * 2 + 1 FROM patients WHERE name NOT IN ('Bob', \
     'Eve') AND age / 2 < 40";
    "INSERT INTO disease VALUES (6, 'flu'), (7, NULL)";
    "UPDATE patients SET age = age + 1, zip = 48109 WHERE name = 'Carol'";
    "DELETE FROM departments WHERE deptid >= 20";
    "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR, d DATE)";
    "CREATE AUDIT EXPRESSION audit_young AS SELECT * FROM patients WHERE \
     age < 30 FOR SENSITIVE TABLE patients, PARTITION BY patientid";
    "CREATE TRIGGER t2 ON ACCESS TO audit_alice BEFORE RETURN AS DENY 'no'";
    "CREATE TRIGGER t3 ON ACCESS TO audit_alice AS INSERT INTO disease \
     SELECT patientid, 'seen' FROM accessed";
    "EXPLAIN ANALYZE SELECT * FROM patients WHERE age > DATE '2020-01-01'";
    "DROP TABLE departments";
  |]

(* Tokens a mutation splices in: keywords, punctuation, and literals at
   the edges of what the lexer and the evaluator accept. *)
let fuzz_tokens =
  [|
    "SELECT"; "FROM"; "WHERE"; "JOIN"; "ON"; "AND"; "OR"; "NOT"; "IN";
    "EXISTS"; "UNION"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT"; "TOP";
    "NULL"; "AS"; "CASE"; "END"; "AUDIT"; "TRIGGER"; "ACCESS"; "DENY";
    "("; ")"; ","; "*"; "/"; "-"; "="; "<>"; "'"; ";"; "."; "0"; "-1";
    "99999999999999999999"; "1e308"; "'x'"; "DATE '2020-13-45'";
    "INTERVAL '1' DAY"; "patients"; "disease"; "age"; "accessed";
  |]

let mutate_sql =
  let open QCheck.Gen in
  let byte_mutation s =
    let n = String.length s in
    if n = 0 then return s
    else
      int_bound (n - 1) >>= fun i ->
      frequency [ (4, printable); (1, char) ] >>= fun c ->
      oneofl
        [
          String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1);
          String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1);
          String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
          String.sub s 0 i;
        ]
  in
  let token_mutation s =
    let toks = Array.of_list (String.split_on_char ' ' s) in
    let n = Array.length toks in
    int_bound (n - 1) >>= fun i ->
    int_bound (n - 1) >>= fun j ->
    oneofa fuzz_tokens >>= fun t ->
    let l = Array.to_list toks in
    oneofl
      [
        List.mapi (fun k x -> if k = i then t else x) l;
        List.filteri (fun k _ -> k <> i) l;
        List.concat (List.mapi (fun k x -> if k = i then [ t; x ] else [ x ]) l);
        List.mapi
          (fun k x ->
            if k = i then toks.(j) else if k = j then toks.(i) else x)
          l;
      ]
    >|= String.concat " "
  in
  let rec mutations k s =
    if k = 0 then return s
    else
      frequency [ (1, byte_mutation s); (3, token_mutation s) ]
      >>= mutations (k - 1)
  in
  let statement =
    oneofa fuzz_seeds >>= fun seed ->
    frequency [ (2, return 0); (5, return 1); (2, return 2) ] >>= fun k ->
    mutations k seed
  in
  list_size (int_range 1 3) statement

(* The server hands [exec] whatever arrives on the wire: every statement
   either runs or fails with one of the engine's typed errors. A case is a
   short script on one database, so a mutated trigger or table can meet
   the statements after it. *)
let prop_mutated_sql_typed_errors =
  QCheck.Test.make ~count:1000
    ~name:"mutated SQL raises only typed errors"
    (QCheck.make ~print:(String.concat ";\n") mutate_sql)
    (fun script ->
      let db = Fixtures.healthcare_with_alice () in
      ignore
        (Db.Database.exec db
           "CREATE TRIGGER watch ON ACCESS TO audit_alice AS NOTIFY 'seen'");
      Db.Database.set_timeout db (Some 2.0);
      List.for_all
        (fun sql ->
          match Db.Database.exec db sql with
          | _ -> true
          | exception
              ( Db.Database.Db_error _ | E.Error _
              | Db.Database.Access_denied _ ) ->
            true)
        script)

let suite =
  [
    Alcotest.test_case "fail-closed withholds results" `Quick
      test_fail_closed_withholds;
    Alcotest.test_case "fail-open releases rows and alarms" `Quick
      test_fail_open_alarms;
    Alcotest.test_case "timeout cancels; next query clean" `Quick test_timeout;
    Alcotest.test_case "row budget cancels and flushes partial ACCESSED"
      `Quick test_row_budget_flushes_partial;
    Alcotest.test_case "row budget cancels UPDATE and DELETE" `Quick
      test_row_budget_cancels_dml;
    Alcotest.test_case "memory budget cancels blocking operators" `Quick
      test_mem_budget;
    Alcotest.test_case "operator fault recovers" `Quick test_operator_fault;
    Alcotest.test_case "trigger-body fault leaves depth 0" `Quick
      test_trigger_body_fault;
    Alcotest.test_case "seeded fault matrix (no false negatives)" `Quick
      test_fault_matrix;
    Alcotest.test_case "errors are classified Db_error values" `Quick
      test_shell_errors_are_db_errors;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_mutated_sql_typed_errors ]
