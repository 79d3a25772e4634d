(** Execution-metrics layer: per-operator stats, the audit operator's
    no-filtering invariant as seen by EXPLAIN ANALYZE, and the JSON
    emitter backing the benchmark report. *)

let check = Alcotest.check

let join_sql =
  "SELECT name, disease FROM patients p, disease d WHERE p.patientid = \
   d.patientid"

let is_audit (r : Exec.Metrics.op_report) =
  String.length r.Exec.Metrics.r_label >= 5
  && String.sub r.Exec.Metrics.r_label 0 5 = "Audit"

(* The audit operator on an instrumented plan: rows-in == rows-out (it never
   filters), and it issues exactly one probe per row seen. Its child is the
   next report entry (pre-order, single child). *)
let test_audit_transparent () =
  let db = Fixtures.healthcare_with_alice () in
  let ctx = Db.Database.context db in
  Exec.Metrics.set_enabled ctx.Exec.Exec_ctx.metrics true;
  let plan =
    Db.Database.prepare_sql db ~audits:[ "audit_alice" ]
      ~heuristic:Audit_core.Placement.Hcn join_sql
  in
  let rows = Db.Database.run_plan db plan in
  check Alcotest.int "instrumented result cardinality" 5 (List.length rows);
  let report = Exec.Metrics.report ctx.Exec.Exec_ctx.metrics in
  let audits = List.filter is_audit report in
  check Alcotest.bool "plan has an audit operator" true (audits <> []);
  let rec pairs = function
    | a :: (child :: _ as rest) ->
      if is_audit a then begin
        check Alcotest.int
          ("audit rows-in == rows-out: " ^ a.Exec.Metrics.r_label)
          child.Exec.Metrics.r_rows a.Exec.Metrics.r_rows;
        check Alcotest.int
          ("one probe per row: " ^ a.Exec.Metrics.r_label)
          a.Exec.Metrics.r_rows a.Exec.Metrics.r_probes
      end;
      pairs rest
    | _ -> ()
  in
  pairs report;
  (* Per-operator probe counters agree with the context-wide ones. *)
  let probes =
    List.fold_left (fun acc r -> acc + r.Exec.Metrics.r_probes) 0 report
  in
  let hits =
    List.fold_left (fun acc r -> acc + r.Exec.Metrics.r_hits) 0 report
  in
  check Alcotest.int "probes match ctx" ctx.Exec.Exec_ctx.audit_probes probes;
  check Alcotest.int "hits match ctx" ctx.Exec.Exec_ctx.audit_hits hits

let contains = Fixtures.contains

let explain_text db sql =
  match Db.Database.exec db sql with
  | Db.Database.Done text -> text
  | _ -> Alcotest.fail "expected Done from EXPLAIN"

(* EXPLAIN ANALYZE output names every physical operator with actual row
   counts; the audit operator also shows its probe/hit counters. *)
let test_explain_analyze () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch_alice ON ACCESS TO audit_alice AS NOTIFY \
        'alice accessed'");
  let text = explain_text db ("EXPLAIN ANALYZE " ^ join_sql) in
  List.iter
    (fun op ->
      check Alcotest.bool ("mentions " ^ op) true (contains text op))
    [
      "Scan patients"; "Scan disease"; "Join"; "Project";
      "AuditProbe[audit_alice]"; "est rows="; "actual rows="; "probes=";
      "hits="; "Execution time:"; "audit probes:";
    ];
  (* Plain EXPLAIN still renders the bare tree. *)
  let plain = explain_text db ("EXPLAIN " ^ join_sql) in
  check Alcotest.bool "EXPLAIN has no actuals" false
    (contains plain "actual rows=");
  (* EXPLAIN ANALYZE is diagnostic: it must not leave metrics collection on
     for subsequent statements. *)
  ignore (Db.Database.exec db ("EXPLAIN ANALYZE " ^ join_sql));
  check Alcotest.bool "metrics off after EXPLAIN ANALYZE" false
    (Exec.Metrics.enabled (Db.Database.context db).Exec.Exec_ctx.metrics)

let test_last_query_stats () =
  let db = Fixtures.healthcare () in
  check Alcotest.bool "no stats by default" true
    (Db.Database.last_query_stats db = None);
  ignore (Db.Database.query db "SELECT name FROM patients");
  check Alcotest.bool "still none (collection off)" true
    (Db.Database.last_query_stats db = None);
  Db.Database.set_collect_metrics db true;
  let rows = Db.Database.query db "SELECT name FROM patients WHERE age > 30" in
  (match Db.Database.last_query_stats db with
  | None -> Alcotest.fail "expected stats after set_collect_metrics"
  | Some report ->
    check Alcotest.bool "non-empty report" true (report <> []);
    let root = List.hd report in
    check Alcotest.int "root rows = result rows" (List.length rows)
      root.Exec.Metrics.r_rows);
  Db.Database.set_collect_metrics db false

(* Correlated Apply opens its inner plan once per outer row: loops must
   accumulate across opens. *)
let test_apply_loops () =
  let db = Fixtures.healthcare () in
  Db.Database.set_collect_metrics db true;
  ignore
    (Db.Database.query db
       "SELECT name FROM patients p WHERE EXISTS (SELECT 1 FROM disease d \
        WHERE d.patientid = p.patientid)");
  (match Db.Database.last_query_stats db with
  | None -> Alcotest.fail "expected stats"
  | Some report ->
    let opens =
      List.fold_left (fun acc r -> max acc r.Exec.Metrics.r_opens) 0 report
    in
    check Alcotest.bool "some operator re-opened per outer row" true
      (opens >= 5));
  Db.Database.set_collect_metrics db false

(* Row and compiled engines must report the same per-operator row totals
   (in the same plan pre-order) on real TPC-H plans — scan/filter/join/agg
   pipelines, instrumented with the §V audit expression. *)
let test_mode_rows_agree () =
  let db = Fixtures.create () in
  ignore (Tpch.Dbgen.load db ~sf:0.002);
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_customer AS NOTIFY 'hit'");
  Db.Database.set_collect_metrics db true;
  let profile mode sql =
    Db.Database.set_exec_mode db mode;
    ignore (Db.Database.query db sql);
    match Db.Database.last_query_stats db with
    | None -> Alcotest.fail "expected stats"
    | Some report ->
      List.map
        (fun (r : Exec.Metrics.op_report) ->
          Printf.sprintf "%s rows=%d" r.Exec.Metrics.r_label
            r.Exec.Metrics.r_rows)
        report
  in
  List.iter
    (fun qid ->
      let q = Tpch.Queries.find qid in
      let oracle = profile `Row q.Tpch.Queries.sql in
      check
        Alcotest.(list string)
        ("per-operator rows (compiled): " ^ qid)
        oracle
        (profile `Compiled q.Tpch.Queries.sql))
    [ "Q1"; "Q5"; "Q6" ]

(* EXPLAIN ANALYZE of an index-NL join (its probe chain's nodes carry
   rows but are never opened) and of a correlated Apply (its inner plan
   re-opened per outer row): both engines print the same tree with the
   same per-node actual rows, loops and probe counts; only times differ. *)
let test_explain_analyze_inl_apply () =
  let db = Fixtures.create () in
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE a (id INT PRIMARY KEY, k INT)";
  e "CREATE TABLE b (id INT PRIMARY KEY, k INT, v INT)";
  for i = 1 to 10 do
    e (Printf.sprintf "INSERT INTO a VALUES (%d, %d)" i (i mod 4))
  done;
  for i = 1 to 100 do
    e (Printf.sprintf "INSERT INTO b VALUES (%d, %d, %d)" i (i mod 7) (i mod 5))
  done;
  e "CREATE INDEX b_k ON b (k)";
  e
    "CREATE AUDIT EXPRESSION audit_a AS SELECT * FROM a FOR SENSITIVE TABLE \
     a, PARTITION BY id";
  e "CREATE TRIGGER watch_a ON ACCESS TO audit_a AS NOTIFY 'a'";
  let untimed text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (contains l "Execution time"))
    |> List.map (fun l ->
           String.split_on_char ' ' l
           |> List.filter (fun w ->
                  not (String.length w >= 5 && String.sub w 0 5 = "time="))
           |> String.concat " ")
  in
  let analyze mode sql =
    Db.Database.set_exec_mode db mode;
    untimed (explain_text db ("EXPLAIN ANALYZE " ^ sql))
  in
  List.iter
    (fun (op, sql) ->
      let row = analyze `Row sql in
      check Alcotest.bool ("plan has " ^ op) true
        (List.exists (fun l -> contains l op) row);
      check
        Alcotest.(list string)
        ("EXPLAIN ANALYZE per-node rows, row vs compiled: " ^ op)
        row (analyze `Compiled sql))
    [
      ("IndexNLJoin", "SELECT a.id, b.v FROM a, b WHERE a.k = b.k AND b.v > 1");
      ( "SemiApply",
        "SELECT a.id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k < a.k AND \
         b.v = 3)" );
    ]

let test_json_emitter () =
  let open Benchkit in
  let j =
    Json.Obj
      [
        ("a", Json.Str "x\"y\\z\n");
        ("b", Json.List [ Json.Int 1; Json.Float 1.5; Json.Null; Json.Bool true ]);
        ("empty", Json.List []);
        ("nan", Json.Float Float.nan);
      ]
  in
  let expected =
    "{\n  \"a\": \"x\\\"y\\\\z\\n\",\n  \"b\": [\n    1,\n    1.5,\n    \
     null,\n    true\n  ],\n  \"empty\": [],\n  \"nan\": null\n}\n"
  in
  check Alcotest.string "pretty JSON" expected (Json.to_string j)

(* The audit operators' share of a run is a share of its measured wall
   time, so it lies in [0, 100] even when a blocking operator (a hash
   aggregate's build) runs its audited input outside the root's getNext. *)
let test_audit_time_share () =
  let env =
    Experiments.Setup.prepare
      { Experiments.Setup.default_config with sf = 0.002; repeats = 1; warmup = 0 }
  in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      match Experiments.Json_report.instrumented_profile env q.Tpch.Queries.sql with
      | Benchkit.Json.Obj fields -> (
        match List.assoc_opt "audit_operator_time_pct" fields with
        | Some (Benchkit.Json.Float pct) ->
          check Alcotest.bool
            (Printf.sprintf "%s: audit operator time %.1f%% in [0, 100]"
               q.Tpch.Queries.id pct)
            true
            (pct >= 0.0 && pct <= 100.0)
        | _ -> Alcotest.fail "no audit_operator_time_pct")
      | _ -> Alcotest.fail "profile is not an object")
    Tpch.Queries.customer_workload

let suite =
  [
    Alcotest.test_case "audit operator transparent in metrics" `Quick
      test_audit_transparent;
    Alcotest.test_case "EXPLAIN ANALYZE names operators with row counts"
      `Quick test_explain_analyze;
    Alcotest.test_case "last_query_stats lifecycle" `Quick
      test_last_query_stats;
    Alcotest.test_case "apply loops accumulate" `Quick test_apply_loops;
    Alcotest.test_case "row and compiled agree on per-operator rows (TPC-H)"
      `Quick test_mode_rows_agree;
    Alcotest.test_case "EXPLAIN ANALYZE rows agree on index-NL and Apply"
      `Quick test_explain_analyze_inl_apply;
    Alcotest.test_case "JSON emitter" `Quick test_json_emitter;
    Alcotest.test_case "audit operator time is a share of the run" `Quick
      test_audit_time_share;
  ]
