(** Certified static probe elision ({!Analysis.Independence} /
    {!Analysis.Certificate} / {!Analysis.Elide}).

    The contract under test: elision must be {e invisible} — identical
    rows, identical ACCESSED evidence, identical trigger firings — and
    every elided probe must carry a certificate that replays under the
    independent checker. Tampered certificates must be rejected at every
    layer (validate, the rewrite, the plan verifier). *)

open Storage
open Alcotest

let check = Alcotest.check

(* --------------------------------------------------------------- *)
(* Fixtures                                                         *)
(* --------------------------------------------------------------- *)

(** Healthcare DB, audit_alice declared and watched, so [exec]
    instruments statements with the probe. *)
let watched () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER w ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  db

let audit_info db name =
  let a = Db.Database.audit_expr db name in
  {
    Analysis.Independence.name = a.Audit_core.Audit_expr.name;
    sensitive_table = a.Audit_core.Audit_expr.sensitive_table;
    partition_by = a.Audit_core.Audit_expr.partition_by;
    definition = a.Audit_core.Audit_expr.definition;
  }

let decisions_of db ?(audits = [ "audit_alice" ]) sql =
  let phys = Db.Database.physical_sql db ~audits sql in
  let infos = List.map (audit_info db) audits in
  ( phys,
    Analysis.Independence.analyze_plan
      ~catalog:(Db.Database.catalog db)
      ~audits:infos phys )

let accessed db name =
  try List.assoc name (Db.Database.last_accessed db) with Not_found -> []

let probe_count phys =
  let n = ref 0 in
  let rec go (p : Plan.Physical.t) =
    (match p.Plan.Physical.op with
    | Plan.Physical.Audit_probe _ -> incr n
    | _ -> ());
    List.iter go (Plan.Physical.children p)
  in
  go phys;
  !n

let contains = Fixtures.contains

(* --------------------------------------------------------------- *)
(* Analyzer verdicts                                                *)
(* --------------------------------------------------------------- *)

let test_verdicts () =
  let db = watched () in
  let verdict sql =
    match snd (decisions_of db sql) with
    | [ d ] -> d.Analysis.Independence.verdict
    | ds -> failf "expected one probe, got %d" (List.length ds)
  in
  let vt = testable
      (Fmt.of_to_string Analysis.Independence.string_of_verdict)
      ( = )
  in
  (* Disjoint on a non-partition column: sound because patientid is the
     primary key. *)
  check vt "name='Bob' independent" Analysis.Independence.Independent
    (verdict "SELECT name FROM patients WHERE name = 'Bob'");
  check vt "name='Alice' overlapping" Analysis.Independence.Overlapping
    (verdict "SELECT name FROM patients WHERE name = 'Alice'");
  check vt "unconstrained overlapping" Analysis.Independence.Overlapping
    (verdict "SELECT name FROM patients");
  (* Disjunction both of whose arms miss Alice. *)
  check vt "disjunction independent" Analysis.Independence.Independent
    (verdict
       "SELECT name FROM patients WHERE name = 'Bob' OR name = 'Carol'");
  (* One arm hits. *)
  check vt "mixed disjunction overlapping" Analysis.Independence.Overlapping
    (verdict
       "SELECT name FROM patients WHERE name = 'Bob' OR name = 'Alice'");
  (* Join: the patients probe under hcn sits above the join, so the
     disease-side constraint alone must not certify independence. *)
  check vt "join with live patients side overlapping"
    Analysis.Independence.Overlapping
    (verdict
       "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
        d.patientid AND d.disease = 'flu'");
  check vt "join independent via patients predicate"
    Analysis.Independence.Independent
    (verdict
       "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
        d.patientid AND p.name = 'Bob'")

let test_certificate_replays () =
  let db = watched () in
  let _, ds = decisions_of db "SELECT name FROM patients WHERE name = 'Bob'" in
  match ds with
  | [ { Analysis.Independence.certificate = Some c; _ } ] ->
    (match Analysis.Certificate.validate c with
    | Ok () -> ()
    | Error e -> failf "certificate should replay: %s" e);
    check string "audit name" "audit_alice" c.Analysis.Certificate.audit_name;
    check string "witness column" "name" c.Analysis.Certificate.witness;
    check bool "key uniqueness recorded" true
      c.Analysis.Certificate.key_unique;
    check bool "derivation non-empty" true
      (c.Analysis.Certificate.derivation <> []);
    check bool "summary mentions audit" true
      (contains (Analysis.Certificate.summary c) "audit_alice")
  | _ -> fail "expected one independent decision with a certificate"

(* --------------------------------------------------------------- *)
(* The rewrite                                                      *)
(* --------------------------------------------------------------- *)

let test_elide_strips_certified () =
  let db = watched () in
  let phys, ds =
    decisions_of db "SELECT name FROM patients WHERE name = 'Bob'"
  in
  check int "one probe before" 1 (probe_count phys);
  let r = Analysis.Elide.apply ~decisions:ds phys in
  check int "probe elided" 0 (probe_count r.Analysis.Elide.plan);
  check int "elided count" 1 r.Analysis.Elide.elided;
  check int "kept count" 0 r.Analysis.Elide.kept;
  check int "one certificate" 1 (List.length r.Analysis.Elide.certificates);
  (* Overlapping probes stay. *)
  let phys2, ds2 =
    decisions_of db "SELECT name FROM patients WHERE name = 'Alice'"
  in
  let r2 = Analysis.Elide.apply ~decisions:ds2 phys2 in
  check int "overlapping kept" 1 (probe_count r2.Analysis.Elide.plan);
  check int "nothing elided" 0 r2.Analysis.Elide.elided

let test_verify_accepts_certified_elision () =
  let db = watched () in
  let phys, ds =
    decisions_of db "SELECT name FROM patients WHERE name = 'Bob'"
  in
  let r = Analysis.Elide.apply ~decisions:ds phys in
  let audits =
    [
      {
        Analysis.Plan_verify.name = "audit_alice";
        sensitive_table = "patients";
        partition_by = "patientid";
      };
    ]
  in
  (* Without the certificate the elided plan violates coverage... *)
  let bare = Analysis.Plan_verify.verify ~audits r.Analysis.Elide.plan in
  check bool "coverage violated without certificate" true
    (List.exists
       (fun v -> v.Analysis.Plan_verify.rule = Analysis.Plan_verify.Coverage)
       bare);
  (* ...and passes with it. *)
  let vs =
    Analysis.Plan_verify.verify
      ~certificates:r.Analysis.Elide.certificates ~audits
      r.Analysis.Elide.plan
  in
  check (list (testable (Fmt.of_to_string Analysis.Plan_verify.string_of_violation) ( = )))
    "clean with certificate" [] vs

(* --------------------------------------------------------------- *)
(* Tampering                                                        *)
(* --------------------------------------------------------------- *)

let test_tampered_certificates_rejected () =
  let db = watched () in
  let phys, ds =
    decisions_of db "SELECT name FROM patients WHERE name = 'Bob'"
  in
  let d, c =
    match ds with
    | [ ({ Analysis.Independence.certificate = Some c; _ } as d) ] -> (d, c)
    | _ -> fail "expected one certified decision"
  in
  let rejected what c' =
    check bool what true (Analysis.Certificate.validate c' <> Ok ())
  in
  (* Unknown witness column. *)
  rejected "bogus witness" { c with Analysis.Certificate.witness = "ghost" };
  (* Witness meet no longer Bot after weakening the query side. *)
  rejected "weakened witness step"
    {
      c with
      Analysis.Certificate.steps =
        List.map
          (fun (s : Analysis.Certificate.step) ->
            if s.column = c.Analysis.Certificate.witness then
              { s with Analysis.Certificate.query_side = Analysis.Abstract_domain.Top }
            else s)
          c.Analysis.Certificate.steps;
    };
  (* Recorded meet contradicting its sides. *)
  rejected "forged meet"
    {
      c with
      Analysis.Certificate.steps =
        List.map
          (fun (s : Analysis.Certificate.step) ->
            { s with Analysis.Certificate.meet = Analysis.Abstract_domain.Bot })
          c.Analysis.Certificate.steps;
    };
  (* Claiming non-unique key with a non-partition witness. *)
  rejected "non-key witness"
    { c with Analysis.Certificate.key_unique = false };
  (* The rewrite re-validates: a tampered decision elides nothing. *)
  let tampered =
    {
      d with
      Analysis.Independence.certificate =
        Some { c with Analysis.Certificate.witness = "ghost" };
    }
  in
  let r = Analysis.Elide.apply ~decisions:[ tampered ] phys in
  check int "tampered probe kept" 1 (probe_count r.Analysis.Elide.plan);
  check int "tampered not elided" 0 r.Analysis.Elide.elided;
  (* And the verifier refuses coverage from a tampered certificate. *)
  let honest = Analysis.Elide.apply ~decisions:[ d ] phys in
  let audits =
    [
      {
        Analysis.Plan_verify.name = "audit_alice";
        sensitive_table = "patients";
        partition_by = "patientid";
      };
    ]
  in
  let vs =
    Analysis.Plan_verify.verify
      ~certificates:[ { c with Analysis.Certificate.witness = "ghost" } ]
      ~audits honest.Analysis.Elide.plan
  in
  check bool "verifier rejects tampered certificate" true
    (List.exists
       (fun v -> v.Analysis.Plan_verify.rule = Analysis.Plan_verify.Coverage)
       vs)

(* --------------------------------------------------------------- *)
(* End-to-end: elided execution is invisible                        *)
(* --------------------------------------------------------------- *)

(** The mutation matrix: every query runs under both modes; rows,
    per-audit ACCESSED evidence and notifications must be identical. *)
let soundness_queries =
  [
    ("SELECT name FROM patients WHERE name = 'Bob'", `Elides);
    ("SELECT name FROM patients WHERE name = 'Bob' OR name = 'Eve'", `Elides);
    ("SELECT name FROM patients WHERE name = 'Alice'", `Keeps);
    ("SELECT name, age FROM patients WHERE age > 30", `Keeps);
    ( "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND p.name = 'Carol'",
      `Elides );
    ( "SELECT p.name FROM patients p, disease d WHERE p.patientid = \
       d.patientid AND d.disease = 'cancer'",
      `Keeps );
    ("SELECT count(*) FROM patients WHERE name = 'Dave'", `Elides);
  ]

let test_elision_invisible () =
  List.iter
    (fun (sql, expect) ->
      let run mode =
        let db = watched () in
        Db.Database.set_elision_mode db mode;
        let rows =
          match Db.Database.exec db sql with
          | Db.Database.Rows { rows; _ } -> rows
          | _ -> fail "expected rows"
        in
        let acc = accessed db "audit_alice" in
        let notifs = Db.Database.notifications db in
        let elided =
          List.length
            (List.filter
               (fun d ->
                 d.Analysis.Independence.verdict
                 = Analysis.Independence.Independent)
               (Db.Database.last_elision db))
        in
        (rows, acc, notifs, elided)
      in
      let rows_off, acc_off, n_off, _ = run Db.Database.Elide_off in
      let rows_on, acc_on, n_on, elided = run Db.Database.Elide_certified in
      check Fixtures.tuples (sql ^ ": rows") rows_off rows_on;
      check Fixtures.values (sql ^ ": ACCESSED") acc_off acc_on;
      check (list string) (sql ^ ": notifications") n_off n_on;
      match expect with
      | `Elides ->
        check bool (sql ^ ": probe elided") true (elided >= 1);
        check Fixtures.values (sql ^ ": no evidence") [] acc_on
      | `Keeps -> check int (sql ^ ": probe kept") 0 elided)
    soundness_queries

let test_strict_verify_with_elision () =
  let db = watched () in
  Db.Database.set_elision_mode db Db.Database.Elide_certified;
  Db.Database.set_verify_plans db Db.Database.Strict;
  List.iter
    (fun (sql, _) ->
      match Db.Database.exec db sql with
      | Db.Database.Rows _ -> ()
      | _ -> fail "expected rows")
    soundness_queries;
  check (list string) "no alarms under strict elision" []
    (Db.Database.alarms db)

let test_session_inherits_mode () =
  let db = watched () in
  Db.Database.set_elision_mode db Db.Database.Elide_certified;
  let s = Db.Database.create_session db in
  check bool "session inherits elision" true
    (Db.Database.elision_mode s = Db.Database.Elide_certified)

(* --------------------------------------------------------------- *)
(* EXPLAIN surfaces                                                 *)
(* --------------------------------------------------------------- *)

let test_explain_annotations () =
  let db = watched () in
  Db.Database.set_elision_mode db Db.Database.Elide_certified;
  (match
     Db.Database.exec db "EXPLAIN SELECT name FROM patients WHERE name = 'Bob'"
   with
  | Db.Database.Done s ->
    check bool "EXPLAIN shows elided probe" true
      (contains s "probe elided: Independent (certificate #");
    check bool "EXPLAIN keeps est rows" true (contains s "est rows=")
  | _ -> fail "expected plan text");
  (match
     Db.Database.exec db
       "EXPLAIN SELECT name FROM patients WHERE name = 'Alice'"
   with
  | Db.Database.Done s ->
    check bool "EXPLAIN shows kept probe" true
      (contains s "probe kept: Overlapping")
  | _ -> fail "expected plan text");
  (match
     Db.Database.exec db
       "EXPLAIN VERIFY SELECT name FROM patients WHERE name = 'Bob'"
   with
  | Db.Database.Done s ->
    check bool "EXPLAIN VERIFY annotates" true
      (contains s "probe elided: Independent");
    check bool "EXPLAIN VERIFY passes" true
      (contains s "plan verified: all rules hold");
    check bool "EXPLAIN VERIFY prints certificate" true
      (contains s "elision certificates:")
  | _ -> fail "expected report");
  match
    Db.Database.exec db
      "EXPLAIN ANALYZE SELECT name FROM patients WHERE name = 'Bob'"
  with
  | Db.Database.Done s ->
    check bool "EXPLAIN ANALYZE reports elision" true
      (contains s "probe elided: Independent")
  | _ -> fail "expected analyze output"

(* [\verify] reports the certificates of the query it verified: after
   [\elide off] nothing is elided, so no earlier certificate may leak into
   its report. *)
let test_verify_after_elide_off () =
  let session = Server.Session.of_db (watched ()) in
  let command line =
    match Server.Session.command session (String.split_on_char ' ' line) with
    | Some reply -> reply
    | None -> fail ("not a command: " ^ line)
  in
  let verify = "\\verify SELECT name FROM patients WHERE name = 'Bob'" in
  ignore (command "\\elide certified");
  check bool "certified: the certificate is reported" true
    (contains (command verify) "elision certificates:");
  ignore (command "\\elide off");
  check bool "off: no certificate is reported" false
    (contains (command verify) "elision certificates:")

(* --------------------------------------------------------------- *)
(* QCheck: random queries, elision invisible + Independent sound    *)
(* --------------------------------------------------------------- *)

(** A selective audit over the random-dataset schema: ages are drawn from
    0..9, so [age >= 7] splits the space and the generated [age < k] /
    [age = k] predicates produce genuine Independent verdicts. *)
let young_audit_sql =
  "CREATE AUDIT EXPRESSION audit_old AS SELECT * FROM patients WHERE age \
   >= 7 FOR SENSITIVE TABLE patients, PARTITION BY pid"

let build_db c d =
  let db = Test_properties.build_db c d in
  ignore (Db.Database.exec db young_audit_sql);
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER w_old ON ACCESS TO audit_old AS NOTIFY 'old'");
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER w_pat ON ACCESS TO audit_pat AS NOTIFY 'pat'");
  db

let sorted rows = List.sort Tuple.compare rows

let prop_elision_invisible =
  QCheck.Test.make ~count:120 ~name:"elision preserves rows and evidence"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let run mode =
        let db = build_db c d in
        Db.Database.set_elision_mode db mode;
        let rows =
          match Db.Database.exec db sql with
          | Db.Database.Rows { rows; _ } -> rows
          | _ -> []
        in
        let acc name =
          try List.assoc name (Db.Database.last_accessed db)
          with Not_found -> []
        in
        ( sorted rows,
          acc "audit_pat",
          acc "audit_old",
          Db.Database.notifications db )
      in
      let r_off, p_off, o_off, n_off = run Db.Database.Elide_off in
      let r_on, p_on, o_on, n_on = run Db.Database.Elide_certified in
      r_off = r_on && p_off = p_on && o_off = o_on && n_off = n_on)

(** Soundness of the verdict itself: when the analyzer certifies a probe
    Independent, the offline reference auditors must agree that the query
    accessed nothing. *)
let prop_independent_means_no_evidence =
  QCheck.Test.make ~count:120
    ~name:"Independent verdict implies empty offline ACCESSED"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = build_db c d in
      List.for_all
        (fun audit ->
          let phys = Db.Database.physical_sql db ~audits:[ audit ] sql in
          let infos = [ audit_info db audit ] in
          let ds =
            Analysis.Independence.analyze_plan
              ~catalog:(Db.Database.catalog db)
              ~audits:infos phys
          in
          (* Per-probe verdicts: the query accesses nothing only when
             every probe (e.g. each UNION branch's) is independent. *)
          let independent =
            ds <> []
            && List.for_all
                 (fun dec ->
                   dec.Analysis.Independence.verdict
                   = Analysis.Independence.Independent)
                 ds
          in
          (not independent)
          || (Fixtures.lineage_ids db ~audit sql = []
             && Fixtures.exact_ids db ~audit sql = []))
        [ "audit_pat"; "audit_old" ])

(** Certificates attached to Independent verdicts always replay. *)
let prop_certificates_replay =
  QCheck.Test.make ~count:80 ~name:"attached certificates validate"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = build_db c d in
      Db.Database.set_elision_mode db Db.Database.Elide_certified;
      (match Db.Database.exec db sql with
      | Db.Database.Rows _ | Db.Database.Done _ | Db.Database.Affected _ -> ());
      List.for_all
        (fun dec ->
          match dec.Analysis.Independence.certificate with
          | Some c -> Analysis.Certificate.validate c = Ok ()
          | None ->
            dec.Analysis.Independence.verdict
            <> Analysis.Independence.Independent)
        (Db.Database.last_elision db))

(* [DROP TABLE table] is refused while audit expression [audit] reads it. *)
let check_drop_refused db ~table ~audit =
  match Db.Database.exec db ("DROP TABLE " ^ table) with
  | exception
      Engine_core.Engine_error.Error
        (Engine_core.Engine_error.Dependency { obj; dependents }) ->
    check string "the refused table" ("table " ^ table) obj;
    check (list string) "the reading audit expression is named"
      [ "audit expression " ^ audit ] dependents
  | _ -> failf "DROP TABLE %s under audit %s succeeded" table audit

(* --------------------------------------------------------------- *)
(* The cached audit side                                            *)
(* --------------------------------------------------------------- *)

(** The analysis builds each audit expression's side once and reuses it.
    A re-created expression, or one re-created over a sensitive table
    re-created with another column order, must rebuild it: a stale side
    would certify a probe on rows that are sensitive — a false negative.
    The table itself cannot be dropped while the expression reads it. *)
let test_cached_audit_side_invalidated () =
  let db = Fixtures.create () in
  Db.Database.set_elision_mode db Db.Database.Elide_certified;
  Db.Database.set_verify_plans db Db.Database.Strict;
  let e sql = ignore (Db.Database.exec db sql) in
  let load columns row =
    e (Printf.sprintf "CREATE TABLE customer (%s)" columns);
    List.iter
      (fun (k, name, seg) -> e (Printf.sprintf "INSERT INTO customer VALUES %s" (row k name seg)))
      [ (1, "a", "BUILDING"); (2, "b", "AUTOMOBILE"); (3, "c", "MACHINERY") ]
  in
  load "c_custkey INT PRIMARY KEY, c_name VARCHAR, c_mktsegment VARCHAR"
    (Printf.sprintf "(%d, '%s', '%s')");
  e (Tpch.Queries.audit_segment ());
  e "CREATE TRIGGER w ON ACCESS TO audit_customer AS NOTIFY 'seen'";
  let vt =
    testable (Fmt.of_to_string Analysis.Independence.string_of_verdict) ( = )
  in
  let run sql =
    Db.Database.clear_notifications db;
    e sql;
    let verdicts =
      List.map
        (fun d -> d.Analysis.Independence.verdict)
        (Db.Database.last_elision db)
    in
    (verdicts, accessed db "audit_customer", Db.Database.notifications db)
  in
  let automobile = "SELECT * FROM customer WHERE c_mktsegment = 'AUTOMOBILE'" in
  let v, acc, _ = run automobile in
  check (list vt) "BUILDING audit: AUTOMOBILE read certified"
    [ Analysis.Independence.Independent ] v;
  check Fixtures.values "nothing accessed" [] acc;
  e "DROP TRIGGER w";
  e "DROP AUDIT EXPRESSION audit_customer";
  e (Tpch.Queries.audit_segment ~segment:"AUTOMOBILE" ());
  e "CREATE TRIGGER w ON ACCESS TO audit_customer AS NOTIFY 'seen'";
  let v, acc, notes = run automobile in
  check (list vt) "re-created audit: the probe is kept"
    [ Analysis.Independence.Overlapping ] v;
  check Fixtures.values "customer 2 accessed" [ Value.Int 2 ] acc;
  check (list string) "trigger fired" [ "seen" ] notes;
  (* Same expression, sensitive table re-created with c_mktsegment and
     c_name swapped. Against the old positions, c_name = 'b' would meet
     the audit's {AUTOMOBILE} and certify the probe. *)
  check_drop_refused db ~table:"customer" ~audit:"audit_customer";
  e "DROP TRIGGER w";
  e "DROP AUDIT EXPRESSION audit_customer";
  e "DROP TABLE customer";
  load "c_custkey INT PRIMARY KEY, c_mktsegment VARCHAR, c_name VARCHAR"
    (fun k name seg -> Printf.sprintf "(%d, '%s', '%s')" k seg name);
  e (Tpch.Queries.audit_segment ~segment:"AUTOMOBILE" ());
  e "CREATE TRIGGER w ON ACCESS TO audit_customer AS NOTIFY 'seen'";
  let v, acc, notes =
    run
      "SELECT * FROM customer WHERE c_mktsegment = 'AUTOMOBILE' AND c_name \
       = 'b'"
  in
  check (list vt) "re-created table: the probe is kept"
    [ Analysis.Independence.Overlapping ] v;
  check Fixtures.values "customer 2 accessed again" [ Value.Int 2 ] acc;
  check (list string) "trigger fired again" [ "seen" ] notes;
  let v, acc, _ = run "SELECT * FROM customer WHERE c_mktsegment = 'BUILDING'" in
  check (list vt) "new layout still certifies a disjoint read"
    [ Analysis.Independence.Independent ] v;
  check Fixtures.values "and it accessed nothing" [] acc

(* --------------------------------------------------------------- *)
(* The audit side, read off the definition's plan                  *)
(* --------------------------------------------------------------- *)

let vt =
  testable (Fmt.of_to_string Analysis.Independence.string_of_verdict) ( = )

(** (definition over the healthcare schema, query, verdict of its one
    probe). The audit side is what the scan walk proves of the
    definition's sensitive scan, so constraints reach it through
    equi-join keys, arithmetic, pushed negation and BETWEEN, and a
    disjunction whose arms constrain different columns widens to Top.
    Definitions cannot hold a subquery ([Audit_expr] rejects one), so the
    joined table below is how the side comes to depend on a table other
    than the sensitive one. *)
let side_cases =
  let module I = Analysis.Independence in
  let join_def =
    "SELECT * FROM patients p, disease c WHERE p.patientid = c.patientid \
     AND c.patientid < 5 AND p.age >= 30"
  in
  let arith_def =
    "SELECT * FROM patients WHERE age + 3 > 10 AND NOT (zip <> 5)"
  in
  let between_def = "SELECT * FROM patients WHERE age BETWEEN 20 AND 40" in
  [
    (* c.patientid < 5 crosses the equi-join onto the partition key. *)
    (join_def, "SELECT name FROM patients WHERE patientid = 7", I.Independent);
    (join_def, "SELECT name FROM patients WHERE patientid = 2", I.Overlapping);
    (join_def, "SELECT name FROM patients WHERE age < 30", I.Independent);
    (arith_def, "SELECT name FROM patients WHERE zip = 48109", I.Independent);
    (arith_def, "SELECT name FROM patients WHERE age < 7", I.Independent);
    (arith_def, "SELECT name FROM patients WHERE age >= 5", I.Overlapping);
    (between_def, "SELECT name FROM patients WHERE age > 40", I.Independent);
    ( between_def,
      "SELECT name FROM patients WHERE age BETWEEN 40 AND 50",
      I.Overlapping );
    ( "SELECT * FROM patients WHERE name LIKE 'A%'",
      "SELECT name FROM patients WHERE name = 'Bob'",
      I.Independent );
    ( "SELECT * FROM patients WHERE name LIKE 'A%' OR zip = 3",
      "SELECT name FROM patients WHERE name = 'Bob'",
      I.Overlapping );
  ]

let test_plan_derived_side () =
  List.iter
    (fun (def, sql, expect) ->
      let db = Fixtures.healthcare () in
      ignore
        (Db.Database.exec db
           (Printf.sprintf
              "CREATE AUDIT EXPRESSION audit_t AS %s FOR SENSITIVE TABLE \
               patients, PARTITION BY patientid"
              def));
      match snd (decisions_of db ~audits:[ "audit_t" ] sql) with
      | [ d ] ->
        check vt (def ^ " | " ^ sql) expect d.Analysis.Independence.verdict
      | ds -> failf "%s: expected one probe, got %d" sql (List.length ds))
    side_cases

(** The side depends on every table the definition's plan scans, not only
    the sensitive one. A joined table cannot be dropped while the
    expression reads it; dropped after the expression and re-created,
    even with another layout, it yields a rebuilt side. *)
let test_dropped_definition_table () =
  let db = Fixtures.healthcare () in
  Db.Database.set_elision_mode db Db.Database.Elide_certified;
  let e sql = ignore (Db.Database.exec db sql) in
  let create_audit () =
    e
      "CREATE AUDIT EXPRESSION audit_cancer AS SELECT * FROM patients p, \
       disease d WHERE p.patientid = d.patientid AND d.disease = 'cancer' \
       AND p.age >= 40 FOR SENSITIVE TABLE patients, PARTITION BY patientid";
    e "CREATE TRIGGER w ON ACCESS TO audit_cancer AS NOTIFY 'cancer'"
  in
  create_audit ();
  let run sql =
    match Db.Database.exec db sql with
    | Db.Database.Rows { rows; _ } ->
      ( List.length rows,
        List.map
          (fun d -> d.Analysis.Independence.verdict)
          (Db.Database.last_elision db) )
    | _ -> fail "expected rows"
  in
  let young = "SELECT * FROM patients WHERE age < 30" in
  check (pair int (list vt)) "side built: young read certified"
    (2, [ Analysis.Independence.Independent ])
    (run young);
  check_drop_refused db ~table:"disease" ~audit:"audit_cancer";
  check (pair int (list vt)) "the refused drop keeps the side"
    (2, [ Analysis.Independence.Independent ])
    (run young);
  e "DROP TRIGGER w";
  e "DROP AUDIT EXPRESSION audit_cancer";
  e "DROP TABLE disease";
  e "CREATE TABLE disease (patientid INT, since INT, disease VARCHAR)";
  create_audit ();
  check (pair int (list vt)) "re-created with an extra column: side rebuilt"
    (2, [ Analysis.Independence.Independent ])
    (run young)

let suite =
  [
    test_case "analyzer verdicts" `Quick test_verdicts;
    test_case "cached audit side is rebuilt on re-creation" `Quick
      test_cached_audit_side_invalidated;
    test_case "audit side from the definition's plan" `Quick
      test_plan_derived_side;
    test_case "dropped definition table keeps probes" `Quick
      test_dropped_definition_table;
    test_case "certificates replay" `Quick test_certificate_replays;
    test_case "rewrite strips only certified probes" `Quick
      test_elide_strips_certified;
    test_case "verifier accepts certified elision" `Quick
      test_verify_accepts_certified_elision;
    test_case "tampered certificates rejected everywhere" `Quick
      test_tampered_certificates_rejected;
    test_case "elision is invisible (mutation matrix)" `Quick
      test_elision_invisible;
    test_case "strict verification of elided plans" `Quick
      test_strict_verify_with_elision;
    test_case "sessions inherit elision mode" `Quick
      test_session_inherits_mode;
    test_case "EXPLAIN / EXPLAIN VERIFY / ANALYZE annotations" `Quick
      test_explain_annotations;
    test_case "\\verify after \\elide off reports no certificates" `Quick
      test_verify_after_elide_off;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_elision_invisible;
        prop_independent_means_no_evidence;
        prop_certificates_replay;
      ]
