(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 6-10) plus the DESIGN.md ablations, then runs Bechamel
   micro-benchmarks of the physical operators involved. Alongside the text
   tables it writes a machine-readable JSON report (per-figure rows,
   per-operator timings from the execution-metrics layer, and audit
   overhead percentages) for the CI perf trajectory.

   Configuration via environment (read here, never inside the library):
     TPCH_SF        scale factor (default 0.01)
     TPCH_SEED      generator seed (default 42)
     BENCH_REPEATS  timing repetitions (default 3)
     BENCH_WARMUP   untimed warm-up runs (default 1)
     BENCH_ONLY     comma-separated subset, e.g. "fig6,fig9,micro"
                    (unknown names abort with exit code 2)
     BENCH_JSON     report path (default _bench/bench.json)
   Tables are heap; the row-vs-compiled section ("batch", reported under
   the historical key row_vs_batch) reports heap and columnar.

   The report always embeds an EXPLAIN ANALYZE sample (CI asserts the
   estimated-vs-actual row annotations) and, when selected, the
   "expr-compile" before/after section comparing the interpreter oracle
   with compiled expressions per figure query. *)

open Experiments

let known_benchmarks =
  [
    "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "ablation-idprop";
    "ablation-multi"; "ablation-provenance"; "ablation-static"; "fga";
    "pipeline"; "scaling"; "micro"; "expr-compile"; "batch"; "concurrency";
    "resilience"; "elision";
  ]

let wanted only name = only = [] || List.mem name only

let config_of_env () =
  let get name of_string d =
    Option.value ~default:d (Option.bind (Sys.getenv_opt name) of_string)
  in
  let d = Setup.default_config in
  {
    Setup.sf = get "TPCH_SF" float_of_string_opt d.sf;
    seed = get "TPCH_SEED" int_of_string_opt d.seed;
    repeats = get "BENCH_REPEATS" int_of_string_opt d.repeats;
    warmup = get "BENCH_WARMUP" int_of_string_opt d.warmup;
  }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the physical operators                 *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks (env : Setup.env) : (string * float option) list =
  Benchkit.Report.print_title
    "Operator micro-benchmarks (Bechamel, per-row costs)";
  Benchkit.Report.print_note
    "The audit operator's marginal cost is one hash probe per row — \
     compare it with the costs of the operators it piggybacks on.";
  let open Bechamel in
  let open Toolkit in
  let ctx = Db.Database.context env.Setup.db in
  let view_ids = Audit_core.Sensitive_view.ids env.Setup.view in
  let sample_id = Storage.Value.Int 7 in
  let customer =
    Storage.Catalog.find (Db.Database.catalog env.Setup.db) "customer"
  in
  let row =
    match Storage.Table.find_by_key customer (Storage.Value.Int 1) with
    | Some r -> r
    | None -> assert false
  in
  let pred =
    Plan.Binder.scalar
      (Db.Database.catalog env.Setup.db)
      (Storage.Table.schema customer)
      (Sql.Parser.expression "c_acctbal > 0 AND c_mktsegment = 'BUILDING'")
  in
  let acc = Storage.Value.Hashtbl_v.create 64 in
  let scan_plan = (Setup.plan env "SELECT c_custkey FROM customer").phys in
  let tests =
    [
      Test.make ~name:"audit-probe (hash mem + record)"
        (Staged.stage (fun () ->
             if Storage.Value.Hashtbl_v.mem view_ids sample_id then
               Storage.Value.Hashtbl_v.replace acc sample_id ()));
      Test.make ~name:"filter-predicate eval"
        (Staged.stage (fun () -> ignore (Exec.Eval.truthy ctx row pred)));
      Test.make ~name:"tuple hash (join probe)"
        (Staged.stage (fun () -> ignore (Storage.Tuple.hash row)));
      Test.make ~name:"full customer scan"
        (Staged.stage (fun () ->
             ignore (Exec.Executor.run_count ctx scan_plan)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let grouped = Test.make_grouped ~name:"operators" ~fmt:"%s %s" tests in
  let results = analyze (benchmark grouped) in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Some e
        | _ -> None
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Benchkit.Report.print_table ~headers:[ "operation"; "cost" ]
    (List.map
       (fun (name, est) ->
         let cost =
           match est with
           | Some e -> Printf.sprintf "%.1f ns/run" e
           | None -> "n/a"
         in
         [ name; cost ])
       rows);
  rows

(* ------------------------------------------------------------------ *)

let () =
  let cfg = config_of_env () in
  let only =
    match Sys.getenv_opt "BENCH_ONLY" with
    | None -> []
    | Some s ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun n -> n <> "")
  in
  (* A typo in BENCH_ONLY used to silently run zero benchmarks — poison for
     CI smoke runs. Fail fast instead. *)
  let unknown = List.filter (fun n -> not (List.mem n known_benchmarks)) only in
  if unknown <> [] then begin
    Printf.eprintf
      "error: BENCH_ONLY names no known benchmark: %s\nknown: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " known_benchmarks);
    exit 2
  end;
  Printf.printf
    "SELECT Triggers for Data Auditing — evaluation harness\n\
     =======================================================\n\
     Loading TPC-H (sf=%g, seed=%d)...\n%!"
    cfg.Setup.sf cfg.Setup.seed;
  let t0 = Unix.gettimeofday () in
  let env = Setup.prepare cfg in
  Printf.printf "Loaded in %.1fs: %s\n%!"
    (Unix.gettimeofday () -. t0)
    (Setup.describe env);
  let sections = ref [] in
  let add name json = sections := (name, json) :: !sections in
  if wanted only "fig6" then
    add "fig6" (Json_report.fig6_json env (Figures.fig6 env));
  if wanted only "fig7" then add "fig7" (Json_report.fig7_json (Figures.fig7 env));
  if wanted only "fig8" then add "fig8" (Json_report.fig8_json (Figures.fig8 env));
  if wanted only "fig9" then
    add "fig9" (Json_report.fig9_json env (Figures.fig9 env));
  if wanted only "fig10" then
    add "fig10" (Json_report.fig10_json (Figures.fig10 env));
  if wanted only "ablation-idprop" then
    add "ablation_idprop" (Json_report.ablation_idprop_json (Figures.ablation_idprop env));
  if wanted only "ablation-multi" then
    add "ablation_multi" (Json_report.ablation_multi_json (Figures.ablation_multi env));
  if wanted only "ablation-provenance" then
    add "ablation_provenance"
      (Json_report.ablation_provenance_json (Figures.ablation_provenance env));
  if wanted only "ablation-static" then
    add "ablation_static" (Json_report.ablation_static_json (Figures.ablation_static env));
  if wanted only "fga" then
    add "fga_precision" (Json_report.fga_precision_json (Figures.fga_precision env));
  if wanted only "elision" then
    add "elision" (Json_report.elision_json (Figures.elision env));
  if wanted only "pipeline" then
    add "pipeline" (Json_report.pipeline_json (Pipeline.run env));
  if wanted only "scaling" then
    ignore (Scaling.run ~seed:cfg.Setup.seed ~repeats:cfg.Setup.repeats ());
  if wanted only "micro" then add "micro" (Json_report.micro_json (micro_benchmarks env));
  if wanted only "expr-compile" then
    add "expr_compile" (Json_report.expr_compile_json env);
  if wanted only "batch" then
    add "row_vs_batch" (Json_report.row_vs_batch_json env);
  if wanted only "concurrency" then
    add "concurrency" (Json_report.concurrency_json (Concurrency.run ()));
  if wanted only "resilience" then
    add "resilience"
      (Json_report.resilience_json
         (Resilience.run_overload ())
         (Resilience.run_recovery ()));
  add "explain_analyze_sample" (Json_report.explain_sample env);
  let elapsed = Unix.gettimeofday () -. t0 in
  let path =
    match Sys.getenv_opt "BENCH_JSON" with
    | Some p when String.trim p <> "" -> p
    | _ ->
      if not (Sys.file_exists "_bench") then Sys.mkdir "_bench" 0o755;
      "_bench/bench.json"
  in
  Benchkit.Json.write_file path
    (Json_report.assemble env ~sections:(List.rev !sections) ~elapsed_s:elapsed);
  Printf.printf "\nWrote %s (%d sections).\nDone in %.1fs total.\n" path
    (List.length !sections) elapsed
