(** Offline auditors: the exact deletion-semantics auditor (Definition 2.3)
    against hand-computed expectations, and cross-validation of the
    lineage (why-provenance) auditor against the exact one on the query
    classes where they must agree. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i

let with_all db =
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  db

(* --------------------------------------------------------------- *)
(* Exact auditor on the paper's examples                            *)
(* --------------------------------------------------------------- *)

let test_example_2_4 () =
  (* Alice's record is accessed by the EXISTS query even though her row is
     not in the output. *)
  let db = with_all (Fixtures.healthcare ()) in
  let sql =
    "SELECT 1 FROM patients WHERE EXISTS (SELECT * FROM patients p, disease \
     d WHERE p.patientid = d.patientid AND name = 'Alice' AND disease = \
     'cancer')"
  in
  let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
  check Alcotest.bool "Alice influences the EXISTS query" true
    (List.exists (Value.equal (vi 1)) exact)

let test_exact_simple_filter () =
  let db = with_all (Fixtures.healthcare ()) in
  check Fixtures.values "only matching rows influence" [ vi 1 ]
    (Fixtures.exact_ids db ~audit:"audit_all"
       "SELECT * FROM patients WHERE name = 'Alice'");
  check Fixtures.values "aggregates touch everyone" [ vi 1; vi 2; vi 3; vi 4; vi 5 ]
    (Fixtures.exact_ids db ~audit:"audit_all"
       "SELECT count(*) FROM patients")

let test_exact_duplicate_elimination_caveat () =
  (* §II-B: with two Alices suffering cancer, DISTINCT hides the influence
     of each single one — the deletion semantics miss both. *)
  let db = Fixtures.healthcare () in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (6,'Alice',50,1)");
  ignore (Db.Database.exec db "INSERT INTO disease VALUES (6,'cancer')");
  ignore (Db.Database.exec db Fixtures.audit_all_sql);
  let sql =
    "SELECT DISTINCT name FROM patients p, disease d WHERE p.patientid = \
     d.patientid AND disease = 'cancer' AND name = 'Alice'"
  in
  let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
  check Fixtures.values "neither Alice influences the DISTINCT result" []
    exact;
  (* The lineage auditor over-approximates here (documented caveat) — and
     the online operators still catch both, so nothing is lost upstream. *)
  let lineage = Fixtures.lineage_ids db ~audit:"audit_all" sql in
  check Fixtures.values "lineage reports both (conservative)" [ vi 1; vi 6 ]
    lineage

let test_exact_candidates_restriction () =
  let db = with_all (Fixtures.healthcare ()) in
  let restricted =
    Db.Database.exact_accessed db ~audit:"audit_all"
      ~candidates:[ vi 1; vi 3 ]
      (Db.Database.plan_sql db ~audits:[] "SELECT * FROM patients WHERE age < 40")
  in
  check Fixtures.values "only candidates are tested" [ vi 1 ] restricted

(* A plan that scans no sensitive table runs once: hiding a partition
   cannot change its result. An [Op_next] fault armed one getNext past a
   single run fires on any re-run. *)
let test_exact_skips_unrelated_plan () =
  let db = with_all (Fixtures.healthcare ()) in
  let plan = Db.Database.plan_sql db ~audits:[] "SELECT count(*) FROM disease" in
  let kit = Db.Database.faults db in
  let rec past_one_run at =
    Engine_core.Faultkit.arm kit
      [ Engine_core.Faultkit.Op_next { op = "*"; at } ];
    match
      Db.Database.run_plan db (Db.Database.prepare_plan db ~audits:[] plan)
    with
    | _ -> at
    | exception Engine_core.Faultkit.Fault_injected _ -> past_one_run (at + 1)
  in
  let at = past_one_run 1 in
  Engine_core.Faultkit.arm kit [ Engine_core.Faultkit.Op_next { op = "*"; at } ];
  check Fixtures.values "no candidate is accessed" []
    (Db.Database.exact_accessed db ~audit:"audit_all" plan);
  check Alcotest.(list string) "the plan ran once" []
    (Engine_core.Faultkit.fired kit);
  Engine_core.Faultkit.disarm kit

(* --------------------------------------------------------------- *)
(* Lineage = exact on the evaluation query classes                  *)
(* --------------------------------------------------------------- *)

let agree_cases =
  [
    "SELECT * FROM patients WHERE age > 30";
    "SELECT name FROM patients p, disease d WHERE p.patientid = d.patientid \
     AND d.disease = 'flu'";
    "SELECT age, count(*) FROM patients GROUP BY age";
    "SELECT d.disease, count(*) FROM patients p, disease d WHERE \
     p.patientid = d.patientid GROUP BY d.disease HAVING count(*) >= 2";
    "SELECT zip, sum(age) FROM patients GROUP BY zip";
    "SELECT TOP 2 patientid, name FROM patients ORDER BY age";
    "SELECT name FROM patients WHERE patientid IN (SELECT patientid FROM \
     disease WHERE disease = 'cancer')";
    "SELECT count(*) FROM patients WHERE zip = 48109";
    "SELECT p.name FROM patients p LEFT JOIN disease d ON p.patientid = \
     d.patientid AND d.disease = 'flu'";
    (* A NULL-keyed group: its members join back only if NULL keys match. *)
    "SELECT d.disease, count(*) FROM patients p LEFT JOIN disease d ON \
     p.patientid = d.patientid AND d.disease = 'flu' GROUP BY d.disease";
    (* An empty scalar aggregate still yields its one row, so every
       patient it is joined to is in the output. *)
    "SELECT p.name, t.c FROM patients p, (SELECT count(*) AS c FROM \
     patients q WHERE q.age > 100) t";
  ]

let test_lineage_equals_exact () =
  let db = with_all (Fixtures.healthcare ()) in
  List.iter
    (fun sql ->
      let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_all" sql in
      check Fixtures.values (Printf.sprintf "lineage = exact for %s" sql)
        exact lineage)
    agree_cases

let test_lineage_topk_window () =
  (* Only the rows in the top-k window are in the lineage. *)
  let db = with_all (Fixtures.healthcare ()) in
  let lineage =
    Fixtures.lineage_ids db ~audit:"audit_all"
      "SELECT TOP 2 patientid, name FROM patients ORDER BY age"
  in
  (* Youngest two: Bob (22) and Eve (29). *)
  check Fixtures.values "window rows only" [ vi 2; vi 5 ] lineage

let test_lineage_group_union () =
  let db = with_all (Fixtures.healthcare ()) in
  let lineage =
    Fixtures.lineage_ids db ~audit:"audit_all"
      "SELECT zip, count(*) FROM patients WHERE zip = 48109 GROUP BY zip"
  in
  check Fixtures.values "group members union" [ vi 1; vi 2 ] lineage

let test_lineage_semi_witnesses () =
  (* Witnesses of an IN subquery are part of the lineage. *)
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_disease AS SELECT * FROM disease FOR \
        SENSITIVE TABLE disease, PARTITION BY patientid");
  let lineage =
    Fixtures.lineage_ids db ~audit:"audit_disease"
      "SELECT name FROM patients WHERE patientid IN (SELECT patientid FROM \
       disease WHERE disease = 'cancer')"
  in
  check Fixtures.values "cancer disease rows are witnesses" [ vi 1; vi 4 ]
    lineage

(* Exact ⊆ lineage on all cases without anti-joins (one-sidedness of the
   ground-truth pair itself). *)
let test_exact_subset_lineage () =
  let db = with_all (Fixtures.healthcare ()) in
  List.iter
    (fun sql ->
      let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
      let lineage = Fixtures.lineage_ids db ~audit:"audit_all" sql in
      check Alcotest.bool
        (Printf.sprintf "exact subset-of lineage for %s" sql)
        true
        (Fixtures.subset exact lineage))
    (agree_cases
    @ [
        "SELECT DISTINCT zip FROM patients";
        "SELECT name FROM patients p WHERE EXISTS (SELECT 1 FROM disease d \
         WHERE d.patientid = p.patientid AND d.disease = 'flu')";
      ])

let test_lineage_scalar_apply () =
  (* Scalar subquery per row: the inner contributing rows are in the
     lineage of every outer row they decorate. *)
  let db = with_all (Fixtures.healthcare ()) in
  let lineage =
    Fixtures.lineage_ids db ~audit:"audit_all"
      "SELECT d.disease, (SELECT count(*) FROM patients p WHERE p.patientid \
       = d.patientid) FROM disease d WHERE d.disease = 'flu'"
  in
  (* Flu rows belong to Bob (2) and Carol (3); their patient rows feed the
     correlated counts. *)
  check Fixtures.values "inner contributors annotated" [ vi 2; vi 3 ] lineage

let test_lineage_correlated_semi () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_disease AS SELECT * FROM disease FOR \
        SENSITIVE TABLE disease, PARTITION BY patientid");
  let sql =
    "SELECT name FROM patients p WHERE EXISTS (SELECT 1 FROM disease d \
     WHERE d.patientid = p.patientid AND d.disease = 'cancer')"
  in
  let lineage = Fixtures.lineage_ids db ~audit:"audit_disease" sql in
  let exact = Fixtures.exact_ids db ~audit:"audit_disease" sql in
  check Fixtures.values "witnesses of the EXISTS" [ vi 1; vi 4 ] lineage;
  check Fixtures.values "exact agrees (single witnesses)" lineage exact

let test_min_max_overapproximation () =
  (* MIN/MAX: a non-extremal group member does not influence the result,
     but lineage conservatively includes it (documented over-approx). *)
  let db = with_all (Fixtures.healthcare ()) in
  let sql = "SELECT zip, max(age) FROM patients WHERE zip = 48109 GROUP BY zip" in
  let exact = Fixtures.exact_ids db ~audit:"audit_all" sql in
  let lineage = Fixtures.lineage_ids db ~audit:"audit_all" sql in
  (* Alice (34) is the max in 48109; Bob (22) is not. *)
  check Fixtures.values "exact: only the max row influences" [ vi 1 ] exact;
  check Fixtures.values "lineage: whole group (conservative)" [ vi 1; vi 2 ]
    lineage;
  check Alcotest.bool "one-sidedness preserved" true
    (Fixtures.subset exact lineage)

let test_hide_does_not_mutate () =
  let db = with_all (Fixtures.healthcare ()) in
  let before = Fixtures.rows_sorted db "SELECT * FROM patients" in
  ignore
    (Fixtures.exact_ids db ~audit:"audit_all" "SELECT count(*) FROM patients");
  check Fixtures.tuples "exact auditing leaves the table untouched" before
    (Fixtures.rows_sorted db "SELECT * FROM patients")

let suite =
  [
    Alcotest.test_case "Example 2.4: EXISTS access" `Quick test_example_2_4;
    Alcotest.test_case "lineage: scalar apply contributors" `Quick
      test_lineage_scalar_apply;
    Alcotest.test_case "lineage: correlated semi witnesses" `Quick
      test_lineage_correlated_semi;
    Alcotest.test_case "MIN/MAX over-approximation (documented)" `Quick
      test_min_max_overapproximation;
    Alcotest.test_case "virtual deletion does not mutate" `Quick
      test_hide_does_not_mutate;
    Alcotest.test_case "exact: filters and aggregates" `Quick
      test_exact_simple_filter;
    Alcotest.test_case "§II-B duplicate-elimination caveat" `Quick
      test_exact_duplicate_elimination_caveat;
    Alcotest.test_case "exact: candidate restriction" `Quick
      test_exact_candidates_restriction;
    Alcotest.test_case "exact: a plan without the sensitive table runs once"
      `Quick test_exact_skips_unrelated_plan;
    Alcotest.test_case "lineage = exact (evaluation classes)" `Quick
      test_lineage_equals_exact;
    Alcotest.test_case "lineage: top-k window" `Quick test_lineage_topk_window;
    Alcotest.test_case "lineage: group union" `Quick test_lineage_group_union;
    Alcotest.test_case "lineage: semi-join witnesses" `Quick
      test_lineage_semi_witnesses;
    Alcotest.test_case "exact subset-of lineage" `Quick test_exact_subset_lineage;
  ]
