(** Plan-invariant verifier ({!Analysis.Plan_verify}) and static FGA
    baseline ({!Db.Database.fga_verdict}) tests:

    - the whole TPC-H corpus verifies clean, for every placement
      heuristic, both through [verify_query] and end-to-end under
      [Strict] mode;
    - a mutation harness: each verifier rule is shown to catch at least
      one plan corruption of its kind (stripped probes, probes folded
      into index-lookup chains, probes hoisted past non-commuting
      operators, corrupted ID columns, arity damage, broken estimates),
      and the three audit rules shown the same way on the logical tree;
    - QCheck soundness: optimizer output always verifies, on both trees;
      the strip mutation is always caught, on both trees; an FGA
      NO-ACCESS verdict implies the offline exact auditor finds nothing. *)

open Analysis
module P = Plan.Physical
module L = Plan.Logical

(* --------------------------------------------------------------- *)
(* Plan surgery                                                     *)
(* --------------------------------------------------------------- *)

(** Bottom-up rewrite: [f] is applied to every node, children first. *)
let rec map_plan (f : P.t -> P.t) (p : P.t) : P.t =
  let r = map_plan f in
  let op =
    match p.P.op with
    | P.Seq_scan _ as op -> op
    | P.Filter c -> P.Filter { c with child = r c.child }
    | P.Project c -> P.Project { c with child = r c.child }
    | P.Hash_join c -> P.Hash_join { c with left = r c.left; right = r c.right }
    | P.Nl_join c -> P.Nl_join { c with left = r c.left; right = r c.right }
    | P.Index_nl_join c ->
      P.Index_nl_join { c with left = r c.left; chain = r c.chain }
    | P.Hash_semi_join c ->
      P.Hash_semi_join { c with left = r c.left; right = r c.right }
    | P.Apply c -> P.Apply { c with outer = r c.outer; inner = r c.inner }
    | P.Hash_agg c -> P.Hash_agg { c with child = r c.child }
    | P.Sort c -> P.Sort { c with child = r c.child }
    | P.Top_k c -> P.Top_k { c with child = r c.child }
    | P.Limit c -> P.Limit { c with child = r c.child }
    | P.Distinct c -> P.Distinct (r c)
    | P.Audit_probe c -> P.Audit_probe { c with child = r c.child }
    | P.Set_op c -> P.Set_op { c with left = r c.left; right = r c.right }
  in
  f { p with P.op }

let strip_probes =
  map_plan (fun n ->
      match n.P.op with P.Audit_probe { child; _ } -> child | _ -> n)

let rewrite_id_col f =
  map_plan (fun n ->
      match n.P.op with
      | P.Audit_probe { audit_name; id_col; child } ->
        { n with P.op = P.Audit_probe { audit_name; id_col = f id_col; child } }
      | _ -> n)

(** The same surgery on the logical tree. *)
let rec map_logical (f : L.t -> L.t) (p : L.t) : L.t =
  let r = map_logical f in
  f
    (match p with
    | L.Scan _ -> p
    | L.Filter c -> L.Filter { c with child = r c.child }
    | L.Project c -> L.Project { c with child = r c.child }
    | L.Join c -> L.Join { c with left = r c.left; right = r c.right }
    | L.Semi_join c -> L.Semi_join { c with left = r c.left; right = r c.right }
    | L.Apply c -> L.Apply { c with outer = r c.outer; inner = r c.inner }
    | L.Group_by c -> L.Group_by { c with child = r c.child }
    | L.Sort c -> L.Sort { c with child = r c.child }
    | L.Limit c -> L.Limit { c with child = r c.child }
    | L.Distinct c -> L.Distinct (r c)
    | L.Audit c -> L.Audit { c with child = r c.child }
    | L.Set_op c -> L.Set_op { c with left = r c.left; right = r c.right })

(* Strip the first probe met bottom-up, leaving any others. *)
let strip_one_probe () =
  let stripped = ref false in
  map_plan (fun n ->
      match n.P.op with
      | P.Audit_probe { child; _ } when not !stripped ->
        stripped := true;
        child
      | _ -> n)

let strip_one_audit () =
  let stripped = ref false in
  map_logical (function
    | L.Audit { child; _ } when not !stripped ->
      stripped := true;
      child
    | n -> n)

let has_rule rule vs = List.exists (fun v -> v.Plan_verify.rule = rule) vs
let only_rule rule vs = vs <> [] && List.for_all (fun v -> v.Plan_verify.rule = rule) vs

let check_caught name rule vs =
  Alcotest.(check bool)
    (Printf.sprintf "%s caught by %s" name (Plan_verify.rule_name rule))
    true (has_rule rule vs)

(* --------------------------------------------------------------- *)
(* Healthcare fixtures for the mutation harness                     *)
(* --------------------------------------------------------------- *)

let alice_spec =
  {
    Plan_verify.name = "audit_alice";
    sensitive_table = "patients";
    partition_by = "patientid";
  }

let alice_phys db ?(heuristic = Audit_core.Placement.Hcn) sql =
  Db.Database.physical_sql db ~audits:[ "audit_alice" ] ~heuristic sql

let verify ?commute plan = Plan_verify.verify ?commute ~audits:[ alice_spec ] plan

(* --------------------------------------------------------------- *)
(* Mutation harness: one corruption per rule                        *)
(* --------------------------------------------------------------- *)

let test_mutation_coverage () =
  let db = Fixtures.healthcare_with_alice () in
  let phys =
    alice_phys db "SELECT name FROM patients p, disease d WHERE p.patientid \
                   = d.patientid AND d.disease = 'cancer'"
  in
  Alcotest.(check (list string)) "original verifies clean" []
    (List.map Plan_verify.string_of_violation (verify phys));
  let vs = verify (strip_probes phys) in
  check_caught "stripped probe" Plan_verify.Coverage vs;
  Alcotest.(check bool) "coverage is the only failure" true
    (only_rule Plan_verify.Coverage vs)

let test_mutation_probe_in_chain () =
  let db = Fixtures.healthcare_with_alice () in
  (* Hand-lower an index-nested-loop join whose lookup chain contains the
     audit operator — exactly the folding {!P.plan_of_logical} refuses. *)
  let catalog = Db.Database.catalog db in
  let patients =
    match Storage.Catalog.find_opt catalog "patients" with
    | Some t -> t
    | None -> Alcotest.fail "patients table missing"
  in
  let schema = Storage.Table.schema patients in
  let scan =
    { P.op = P.Seq_scan { table = "patients"; alias = "p"; schema; cols = None };
      est = 5.0 }
  in
  let chain =
    { P.op = P.Audit_probe { audit_name = "audit_alice"; id_col = 0; child = scan };
      est = 5.0 }
  in
  let inl =
    {
      P.op =
        P.Index_nl_join
          {
            kind = Plan.Logical.J_inner;
            left = scan;
            left_key = Plan.Scalar.Col 0;
            table = "patients";
            base_col = 0;
            cols = None;
            chain;
            residual = None;
            right_arity = Storage.Schema.arity schema;
          };
      est = 5.0;
    }
  in
  check_caught "probe inside lookup chain" Plan_verify.Probe_in_chain (verify inl)

let test_mutation_commute_path () =
  let db = Fixtures.healthcare_with_alice () in
  (* Highest placement hoists the probe above TOP — legal under the
     highest-node relation, a §III violation under the hcn relation
     (Example 3.2: Limit does not commute with auditing). *)
  let sql = "SELECT TOP 2 name FROM patients ORDER BY age, patientid" in
  let phys = alice_phys db ~heuristic:Audit_core.Placement.Highest sql in
  Alcotest.(check (list string)) "clean under the highest-node relation" []
    (List.map Plan_verify.string_of_violation
       (verify ~commute:Plan_verify.highest_commute phys));
  check_caught "probe hoisted past TOP" Plan_verify.Commute_path
    (verify ~commute:Plan_verify.hcn_commute phys)

let test_mutation_id_provenance () =
  let db = Fixtures.healthcare_with_alice () in
  let phys =
    alice_phys db "SELECT patientid, name FROM patients WHERE age > 30"
  in
  (* Redirect the probe's ID column to a live but wrong column: still
     well-formed, no longer the partition key. *)
  let mutant = rewrite_id_col (fun c -> c + 1) phys in
  check_caught "ID column points at 'name'" Plan_verify.Id_provenance
    (verify mutant)

let test_mutation_schema_wf () =
  let db = Fixtures.healthcare_with_alice () in
  let phys =
    alice_phys db "SELECT patientid, name FROM patients WHERE age > 30"
  in
  let mutant = rewrite_id_col (fun _ -> 999) phys in
  check_caught "ID column out of range" Plan_verify.Schema_wf (verify mutant);
  let swap =
    map_plan (fun n ->
        match n.P.op with
        | P.Hash_join c ->
          { n with P.op = P.Hash_join { c with left = c.right; right = c.left } }
        | _ -> n)
  in
  (* Join on a non-indexed column so the optimizer picks a hash join, with
     inputs of different arity so the stale [right_arity] is detectable. *)
  let joined =
    alice_phys db "SELECT name FROM patients p, disease d WHERE p.age = \
                   d.patientid"
  in
  let rec any f (p : P.t) = f p || List.exists (any f) (P.children p) in
  Alcotest.(check bool) "plan uses a hash join" true
    (any (fun p -> match p.P.op with P.Hash_join _ -> true | _ -> false) joined);
  check_caught "swapped join inputs (stale arity/keys)" Plan_verify.Schema_wf
    (verify (swap joined))

let test_mutation_est_rows () =
  let db = Fixtures.healthcare_with_alice () in
  let phys = alice_phys db "SELECT name FROM patients WHERE age > 30" in
  check_caught "negative estimate" Plan_verify.Est_rows
    (verify { phys with P.est = -1.0 });
  check_caught "NaN estimate" Plan_verify.Est_rows
    (verify { phys with P.est = Float.nan })

(* --------------------------------------------------------------- *)
(* The same audit rules on the placed logical plan                 *)
(* --------------------------------------------------------------- *)

let alice_plan db ?(heuristic = Audit_core.Placement.Hcn) sql =
  Db.Database.plan_sql db ~audits:[ "audit_alice" ] ~heuristic sql

let verify_logical ?commute plan =
  Plan_verify.verify_logical ?commute ~audits:[ alice_spec ] plan

(* [vs] breaks exactly [rules]. *)
let check_rules name rules vs =
  let names rs = List.sort_uniq compare (List.map Plan_verify.rule_name rs) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s caught by exactly its rules" name)
    (names rules)
    (names (List.map (fun v -> v.Plan_verify.rule) vs))

let test_logical_mutation_coverage () =
  let db = Fixtures.healthcare_with_alice () in
  let plan =
    alice_plan db "SELECT name FROM patients p, disease d WHERE p.patientid \
                   = d.patientid AND d.disease = 'cancer'"
  in
  Alcotest.(check (list string)) "original verifies clean" []
    (List.map Plan_verify.string_of_violation (verify_logical plan));
  check_rules "stripped Audit" [ Plan_verify.Coverage ]
    (verify_logical (L.strip_audits plan))

let test_logical_mutation_commute_path () =
  let db = Fixtures.healthcare_with_alice () in
  let sql = "SELECT TOP 2 name FROM patients ORDER BY age, patientid" in
  let plan = alice_plan db ~heuristic:Audit_core.Placement.Highest sql in
  let rec above_limit under = function
    | L.Limit _ -> under
    | L.Audit { child; _ } -> above_limit true child
    | L.Project { child; _ } | L.Sort { child; _ } | L.Filter { child; _ } ->
      above_limit under child
    | _ -> false
  in
  Alcotest.(check bool) "the Audit sits above the Limit" true
    (above_limit false plan);
  Alcotest.(check (list string)) "clean under the highest-node relation" []
    (List.map Plan_verify.string_of_violation
       (verify_logical ~commute:Plan_verify.highest_commute plan));
  check_rules "Audit above Limit" [ Plan_verify.Commute_path ]
    (verify_logical ~commute:Plan_verify.hcn_commute plan)

let test_logical_mutation_id_provenance () =
  let db = Fixtures.healthcare_with_alice () in
  let plan = alice_plan db "SELECT patientid, name FROM patients WHERE age > 30" in
  let mutant =
    map_logical
      (function
        | L.Audit a -> L.Audit { a with id_col = a.id_col + 1 } | n -> n)
      plan
  in
  (* An Audit that observes the wrong column covers no scan, so its scan
     is uncovered too — as on the physical tree. *)
  check_rules "ID column points at 'name'"
    [ Plan_verify.Id_provenance; Plan_verify.Coverage ]
    (verify_logical mutant)

(* --------------------------------------------------------------- *)
(* TPC-H corpus: clean under every heuristic, and under Strict      *)
(* --------------------------------------------------------------- *)

let tpch_db () =
  let db = Fixtures.create () in
  ignore (Tpch.Dbgen.load db ~sf:0.01);
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  db

let tpch_corpus =
  Tpch.Queries.customer_workload @ Tpch.Queries.engine_workload
  @ Tpch.Queries.fga_workload

let test_tpch_corpus_verifies () =
  let db = tpch_db () in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      List.iter
        (fun h ->
          let vs =
            Db.Database.verify_query db ~heuristic:h
              ~audits:[ "audit_customer" ]
              (Sql.Parser.query q.Tpch.Queries.sql)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s clean" q.Tpch.Queries.id)
            []
            (List.map Plan_verify.string_of_violation vs))
        Audit_core.Placement.[ Leaf; Hcn; Highest ])
    tpch_corpus

let test_tpch_strict_executes () =
  let db = tpch_db () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_customer AS NOTIFY 'hit'");
  Db.Database.set_verify_plans db Db.Database.Strict;
  Alcotest.(check bool) "mode readback" true
    (Db.Database.verify_plans_mode db = Db.Database.Strict);
  (* Every corpus query must plan, verify and run under Strict — a raised
     [Engine_error.Error (Verify _)] fails the test. *)
  List.iter
    (fun (q : Tpch.Queries.query) ->
      ignore (Db.Database.exec db q.Tpch.Queries.sql))
    tpch_corpus;
  let r = Db.Database.exec db "EXPLAIN VERIFY SELECT c_name FROM customer" in
  let contains = Fixtures.contains in
  match r with
  | Db.Database.Done text ->
    Alcotest.(check bool) "EXPLAIN VERIFY reports all rules" true
      (List.for_all
         (fun rule -> contains text (Plan_verify.rule_name rule))
         Plan_verify.all_rules)
  | _ -> Alcotest.fail "EXPLAIN VERIFY did not return a report"

(* --------------------------------------------------------------- *)
(* FGA: deterministic precision on the probe workload              *)
(* --------------------------------------------------------------- *)

let verdict : Db.Database.fga_verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf (Db.Database.string_of_fga_verdict v))
    ( = )

let test_fga_precision () =
  let db = tpch_db () in
  let check id expect_abstract expect_legacy =
    let q = List.find (fun q -> q.Tpch.Queries.id = id) Tpch.Queries.fga_workload in
    Alcotest.check verdict (id ^ " abstract") expect_abstract
      (Db.Database.fga_verdict db ~audit:"audit_customer"
         (Sql.Parser.query q.Tpch.Queries.sql));
    Alcotest.check verdict (id ^ " legacy") expect_legacy
      (List.assoc id Experiments.Figures.fga_legacy_verdicts)
  in
  (* The four traps: the plan-based analysis decides them, the legacy
     analyzer false-positived on every one. *)
  List.iter
    (fun id -> check id Db.Database.No_access Db.Database.May_access)
    [ "FP1"; "FP2"; "FP3"; "FP4" ];
  check "TN1" Db.Database.No_access Db.Database.No_access;
  List.iter
    (fun id -> check id Db.Database.May_access Db.Database.May_access)
    [ "TP1"; "TP2"; "TP3" ]

(* The recorded legacy verdicts cover exactly the probe workload: a query
   added to or dropped from it must be reflected in the table. *)
let test_fga_legacy_fixture_ids () =
  Alcotest.(check (list string))
    "legacy table ids = workload ids"
    (List.map (fun q -> q.Tpch.Queries.id) Tpch.Queries.fga_workload)
    (List.map fst Experiments.Figures.fga_legacy_verdicts)

(* --------------------------------------------------------------- *)
(* QCheck soundness                                                 *)
(* --------------------------------------------------------------- *)

let pat_spec =
  {
    Plan_verify.name = "audit_pat";
    sensitive_table = "patients";
    partition_by = "pid";
  }

let prop_verifier_accepts_optimizer =
  QCheck.Test.make ~count:120 ~name:"verifier accepts every optimizer plan"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = Test_properties.build_db c d in
      List.for_all
        (fun h ->
          Db.Database.verify_query db ~heuristic:h ~audits:[ "audit_pat" ]
            (Sql.Parser.query sql)
          = [])
        Audit_core.Placement.[ Leaf; Hcn; Highest ])

let prop_strip_always_caught =
  QCheck.Test.make ~count:120 ~name:"stripping any probe is always caught"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = Test_properties.build_db c d in
      let phys =
        Db.Database.physical_sql db ~audits:[ "audit_pat" ]
          ~heuristic:Audit_core.Placement.Hcn sql
      in
      QCheck.assume (P.audits phys <> []);
      has_rule Plan_verify.Coverage
        (Plan_verify.verify ~audits:[ pat_spec ] (strip_probes phys)))

(* Leaf probes sit at or below hcn positions; Highest is held to its own
   relation, as the statement path does. *)
let commute_of = function
  | Audit_core.Placement.Highest -> Plan_verify.highest_commute
  | Audit_core.Placement.Leaf | Audit_core.Placement.Hcn -> Plan_verify.hcn_commute

let prop_both_trees =
  QCheck.Test.make ~count:120
    ~name:"both trees verify clean; one stripped probe is caught on both"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = Test_properties.build_db c d in
      List.for_all
        (fun h ->
          let commute = commute_of h in
          let plan = Db.Database.plan_sql db ~audits:[ "audit_pat" ] ~heuristic:h sql in
          let phys = Db.Database.physical db plan in
          let logical p = Plan_verify.verify_logical ~commute ~audits:[ pat_spec ] p in
          let physical p = Plan_verify.verify ~commute ~audits:[ pat_spec ] p in
          logical plan = []
          && physical phys = []
          && (L.audits plan = []
             || has_rule Plan_verify.Coverage (logical (strip_one_audit () plan))
                && has_rule Plan_verify.Coverage (physical (strip_one_probe () phys))))
        Audit_core.Placement.[ Leaf; Hcn; Highest ])

(* An audit definition with a WHERE clause, so NO-ACCESS verdicts are
   reachable on the generated queries (ages range over 0–9; queries
   constrain [p.age] with random comparisons). *)
let age_audit_sql =
  "CREATE AUDIT EXPRESSION audit_age AS SELECT * FROM patients WHERE age > \
   7 FOR SENSITIVE TABLE patients, PARTITION BY pid"

let prop_no_access_implies_exact_empty =
  QCheck.Test.make ~count:150
    ~name:"FGA NO-ACCESS implies the offline exact auditor finds nothing"
    Test_properties.arb_case (fun (d, (sql, _), c) ->
      let db = Test_properties.build_db c d in
      ignore (Db.Database.exec db age_audit_sql);
      let v =
        Db.Database.fga_verdict db ~audit:"audit_age" (Sql.Parser.query sql)
      in
      v = Db.Database.May_access
      || Fixtures.exact_ids db ~audit:"audit_age" sql = [])

(* --------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "mutation: stripped probe -> coverage" `Quick
      test_mutation_coverage;
    Alcotest.test_case "mutation: probe in INL chain -> probe-in-chain" `Quick
      test_mutation_probe_in_chain;
    Alcotest.test_case "mutation: probe past TOP -> commute-path" `Quick
      test_mutation_commute_path;
    Alcotest.test_case "mutation: wrong ID column -> id-provenance" `Quick
      test_mutation_id_provenance;
    Alcotest.test_case "mutation: arity damage -> schema-wf" `Quick
      test_mutation_schema_wf;
    Alcotest.test_case "mutation: broken estimates -> est-rows" `Quick
      test_mutation_est_rows;
    Alcotest.test_case "logical mutation: stripped Audit -> coverage" `Quick
      test_logical_mutation_coverage;
    Alcotest.test_case "logical mutation: Audit above Limit -> commute-path"
      `Quick test_logical_mutation_commute_path;
    Alcotest.test_case "logical mutation: wrong ID column -> id-provenance"
      `Quick test_logical_mutation_id_provenance;
    Alcotest.test_case "TPC-H corpus verifies clean (all heuristics)" `Slow
      test_tpch_corpus_verifies;
    Alcotest.test_case "TPC-H corpus executes under Strict" `Slow
      test_tpch_strict_executes;
    Alcotest.test_case "FGA precision on the probe workload" `Quick
      test_fga_precision;
    Alcotest.test_case "FGA legacy verdicts cover the workload" `Quick
      test_fga_legacy_fixture_ids;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_verifier_accepts_optimizer;
        prop_strip_always_caught;
        prop_both_trees;
        prop_no_access_implies_exact_empty;
      ]
