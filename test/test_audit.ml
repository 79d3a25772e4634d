(** Audit expressions and materialized sensitive-ID views: validation rules
    (§II-A restrictions), compilation to IDs (§IV-A1), and incremental /
    conservative maintenance under DML. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i

let view db name = Db.Database.audit_view db name
let ids db name = Audit_core.Sensitive_view.to_list (view db name)

(* --------------------------------------------------------------- *)
(* Validation                                                       *)
(* --------------------------------------------------------------- *)

let expect_db_error db sql =
  match Db.Database.exec db sql with
  | exception Db.Database.Db_error _ -> ()
  | _ -> Alcotest.failf "expected an error for %s" sql

let test_validation () =
  let db = Fixtures.healthcare () in
  (* Subqueries are not allowed (§II-A / [9] privacy restrictions). *)
  expect_db_error db
    "CREATE AUDIT EXPRESSION bad1 AS SELECT * FROM patients WHERE \
     patientid IN (SELECT patientid FROM disease) FOR SENSITIVE TABLE \
     patients, PARTITION BY patientid";
  (* Sensitive table must be in FROM. *)
  expect_db_error db
    "CREATE AUDIT EXPRESSION bad2 AS SELECT * FROM disease FOR SENSITIVE \
     TABLE patients, PARTITION BY patientid";
  (* Partition key must exist on the sensitive table. *)
  expect_db_error db
    "CREATE AUDIT EXPRESSION bad3 AS SELECT * FROM patients FOR SENSITIVE \
     TABLE patients, PARTITION BY nope";
  (* No GROUP BY / DISTINCT / TOP. *)
  expect_db_error db
    "CREATE AUDIT EXPRESSION bad4 AS SELECT zip FROM patients GROUP BY zip \
     FOR SENSITIVE TABLE patients, PARTITION BY patientid";
  expect_db_error db
    "CREATE AUDIT EXPRESSION bad5 AS SELECT DISTINCT * FROM patients FOR \
     SENSITIVE TABLE patients, PARTITION BY patientid";
  (* Duplicate names rejected. *)
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  expect_db_error db Fixtures.audit_all_sql

(* --------------------------------------------------------------- *)
(* Compilation to IDs                                               *)
(* --------------------------------------------------------------- *)

let test_single_table_ids () =
  let db = Fixtures.healthcare_with_alice () in
  check Fixtures.values "only Alice" [ vi 1 ] (ids db "audit_alice");
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_ann_arbor AS SELECT * FROM patients \
        WHERE zip = 48109 FOR SENSITIVE TABLE patients, PARTITION BY \
        patientid");
  check Fixtures.values "zip predicate" [ vi 1; vi 2 ] (ids db "audit_ann_arbor")

let test_join_expression_ids () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_cancer AS SELECT p.* FROM patients p, \
        disease d WHERE p.patientid = d.patientid AND disease = 'cancer' \
        FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  check Fixtures.values "Example 2.2: cancer patients" [ vi 1; vi 4 ]
    (ids db "audit_cancer")

(* --------------------------------------------------------------- *)
(* Incremental maintenance (single-table expressions)               *)
(* --------------------------------------------------------------- *)

let test_incremental_insert_delete () =
  let db = Fixtures.healthcare_with_alice () in
  let v = view db "audit_alice" in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (9,'Alice',41,2)");
  check Alcotest.bool "insert picked up (no refresh)" true
    (Audit_core.Sensitive_view.contains v (vi 9));
  check Alcotest.int "cardinality 2" 2 (Audit_core.Sensitive_view.cardinality v);
  ignore (Db.Database.exec db "DELETE FROM patients WHERE patientid = 9");
  check Alcotest.bool "delete picked up" false
    (Audit_core.Sensitive_view.contains v (vi 9))

let test_incremental_update () =
  let db = Fixtures.healthcare_with_alice () in
  let v = view db "audit_alice" in
  (* Bob becomes Alice. *)
  ignore (Db.Database.exec db "UPDATE patients SET name = 'Alice' WHERE patientid = 2");
  check Alcotest.bool "rename into the predicate" true
    (Audit_core.Sensitive_view.contains v (vi 2));
  (* Alice 1 renamed away. *)
  ignore (Db.Database.exec db "UPDATE patients SET name = 'Alicia' WHERE patientid = 1");
  check Alcotest.bool "rename out of the predicate" false
    (Audit_core.Sensitive_view.contains v (vi 1));
  check Fixtures.values "final view" [ vi 2 ]
    (Audit_core.Sensitive_view.to_list v)

let test_incremental_key_update () =
  let db = Fixtures.healthcare_with_alice () in
  let v = view db "audit_alice" in
  ignore (Db.Database.exec db "UPDATE patients SET patientid = 100 WHERE patientid = 1");
  check Fixtures.values "key change tracked" [ vi 100 ]
    (Audit_core.Sensitive_view.to_list v)

(* --------------------------------------------------------------- *)
(* Conservative maintenance (join expressions)                      *)
(* --------------------------------------------------------------- *)

let test_join_view_refresh_on_other_table () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_cancer AS SELECT p.* FROM patients p, \
        disease d WHERE p.patientid = d.patientid AND disease = 'cancer' \
        FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  let v = view db "audit_cancer" in
  (* Eve develops cancer: the Disease table changes, the view must follow. *)
  ignore (Db.Database.exec db "INSERT INTO disease VALUES (5,'cancer')");
  check Fixtures.values "refresh after joined-table change" [ vi 1; vi 4; vi 5 ]
    (Audit_core.Sensitive_view.to_list v);
  ignore (Db.Database.exec db "DELETE FROM disease WHERE disease = 'cancer'");
  check Fixtures.values "all cancer rows gone" []
    (Audit_core.Sensitive_view.to_list v)

(* DROP AUDIT EXPRESSION unhooks the view: later changes to the sensitive
   table or a joined one no longer maintain it. *)
let test_dropped_view_detached () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION au AS SELECT p.* FROM patients p, disease d \
        WHERE p.patientid = d.patientid AND disease = 'cancer' FOR \
        SENSITIVE TABLE patients, PARTITION BY patientid");
  let v = view db "au" in
  ignore (Audit_core.Sensitive_view.ids v);
  ignore (Db.Database.exec db "DROP AUDIT EXPRESSION au");
  let ops = v.Audit_core.Sensitive_view.maintenance_ops in
  for _ = 1 to 10 do
    ignore
      (Db.Database.exec db "UPDATE patients SET age = age + 1 WHERE patientid = 1")
  done;
  ignore (Db.Database.exec db "INSERT INTO disease VALUES (5,'cancer')");
  check Alcotest.int "no maintenance after the drop" ops
    v.Audit_core.Sensitive_view.maintenance_ops;
  check Alcotest.bool "a joined table no longer dirties it" false
    v.Audit_core.Sensitive_view.dirty

(* Maintenance agrees with recomputation under a random DML workload. *)
let prop_maintenance_matches_recompute =
  QCheck.Test.make ~count:30 ~name:"view maintenance = recompute (random DML)"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 25) (pair (int_range 0 3) (int_range 1 40)))
    (fun ops ->
      let db = Fixtures.healthcare () in
      ignore
        (Db.Database.exec db
           "CREATE AUDIT EXPRESSION audit_young AS SELECT * FROM patients \
            WHERE age < 40 FOR SENSITIVE TABLE patients, PARTITION BY \
            patientid");
      let v = view db "audit_young" in
      let next_id = ref 100 in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
            incr next_id;
            ignore
              (Db.Database.exec db
                 (Printf.sprintf
                    "INSERT INTO patients VALUES (%d,'P%d',%d,1)" !next_id x
                    (x + 10)))
          | 1 ->
            ignore
              (Db.Database.exec db
                 (Printf.sprintf "DELETE FROM patients WHERE patientid %% 7 = %d"
                    (x mod 7)))
          | 2 ->
            ignore
              (Db.Database.exec db
                 (Printf.sprintf
                    "UPDATE patients SET age = %d WHERE patientid %% 5 = %d"
                    (x + 5) (x mod 5)))
          | _ ->
            ignore
              (Db.Database.exec db
                 (Printf.sprintf
                    "UPDATE patients SET name = 'N%d' WHERE age > %d" x x)))
        ops;
      let maintained = Audit_core.Sensitive_view.to_list v in
      Audit_core.Sensitive_view.recompute v;
      let recomputed = Audit_core.Sensitive_view.to_list v in
      maintained = recomputed)

(* --------------------------------------------------------------- *)
(* Sessions sharing one engine                                      *)
(* --------------------------------------------------------------- *)

(* Sessions share every audit's probe table. A mark one session leaves
   must never count as another session's access (B's trigger firing on a
   row B never read), nor hide one (B's read of a row A marked going
   unrecorded). Both sessions run the same number of statements, so
   per-session generation counters would collide. *)
let test_sessions_keep_accessed_apart () =
  let root = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec root
       "CREATE TRIGGER w ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  let a = Db.Database.create_session ~session_id:1 root in
  let b = Db.Database.create_session ~session_id:2 root in
  let read db id =
    ignore
      (Db.Database.exec db
         (Printf.sprintf "SELECT name FROM patients WHERE patientid = %d" id))
  in
  let accessed = Alcotest.(list (pair string Fixtures.values)) in
  let alice = [ ("audit_alice", [ vi 1 ]) ] in
  read a 1;
  check accessed "A read Alice" alice (Db.Database.last_accessed a);
  read b 3;
  check accessed "B read only Carol" [] (Db.Database.last_accessed b);
  check Alcotest.(list string) "B's trigger did not fire" []
    (Db.Database.notifications b);
  read a 1;
  read b 1;
  check accessed "B's read of Alice is audited" alice
    (Db.Database.last_accessed b);
  check Alcotest.(list string) "B's trigger fired" [ "seen" ]
    (Db.Database.notifications b)

let suite =
  [
    Alcotest.test_case "validation rules" `Quick test_validation;
    Alcotest.test_case "single-table compilation to IDs" `Quick
      test_single_table_ids;
    Alcotest.test_case "join expression (Example 2.2)" `Quick
      test_join_expression_ids;
    Alcotest.test_case "incremental insert/delete" `Quick
      test_incremental_insert_delete;
    Alcotest.test_case "incremental update" `Quick test_incremental_update;
    Alcotest.test_case "incremental key update" `Quick
      test_incremental_key_update;
    Alcotest.test_case "join view refreshes on other tables" `Quick
      test_join_view_refresh_on_other_table;
    Alcotest.test_case "dropped audit expression is no longer maintained"
      `Quick test_dropped_view_detached;
    QCheck_alcotest.to_alcotest prop_maintenance_matches_recompute;
    Alcotest.test_case "sessions keep ACCESSED apart" `Quick
      test_sessions_keep_accessed_apart;
  ]
