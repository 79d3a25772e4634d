(** Machine-readable benchmark report (the BENCH_*.json trajectory).

    Each figure/ablation the harness runs contributes one section built from
    the same row records the text tables print, augmented with quantities
    only the JSON consumers need: measured audit-overhead percentages
    (instrumented vs. plain wall time, the paper's headline claim) and
    per-operator breakdowns from the execution-metrics layer, so CI can
    track where instrumented plans spend their time PR over PR. *)

open Benchkit

(* --------------------------------------------------------------- *)
(* Per-operator breakdowns (execution-metrics layer)                *)
(* --------------------------------------------------------------- *)

let op_json (r : Exec.Metrics.op_report) : Json.t =
  Json.Obj
    [
      ("operator", Json.Str r.Exec.Metrics.r_label);
      ("rows", Json.Int r.r_rows);
      ("loops", Json.Int r.r_opens);
      ("next_calls", Json.Int r.r_calls);
      ("time_ms", Json.Float (r.r_time_s *. 1000.0));
      ("audit_probes", Json.Int r.r_probes);
      ("audit_hits", Json.Int r.r_hits);
    ]

(** Run [plan] once with metrics collection on; returns the per-operator
    report and the share of the run's wall time spent inside audit
    operators. The share is of the measured run, not of the root's
    [getNext] time, which leaves out a blocking operator's build phase. *)
let operator_breakdown (env : Setup.env) plan :
    Exec.Metrics.op_report list * float =
  let ctx = Db.Database.context env.Setup.db in
  let m = ctx.Exec.Exec_ctx.metrics in
  let was = Exec.Metrics.enabled m in
  Exec.Metrics.set_enabled m true;
  let total =
    Timing.time_once (fun () -> ignore (Db.Database.run_plan_count env.Setup.db plan))
  in
  let report = Exec.Metrics.report m in
  (* Operator times are inclusive. An audit operator has exactly one child,
     registered immediately after it in pre-order, so its *self* time is the
     difference to the next entry. *)
  let rec audit_self_time acc = function
    | (a : Exec.Metrics.op_report) :: (child :: _ as rest) ->
      let acc =
        if a.Exec.Metrics.r_probes > 0 then
          acc +. Float.max 0.0 (a.r_time_s -. child.Exec.Metrics.r_time_s)
        else acc
      in
      audit_self_time acc rest
    | _ -> acc
  in
  let audit_time = audit_self_time 0.0 report in
  Exec.Metrics.set_enabled m was;
  let pct = if total > 0.0 then audit_time /. total *. 100.0 else 0.0 in
  (report, pct)

(** Measured wall-clock overhead (%) of the hcn-instrumented plan over the
    plain plan for [sql], plus the instrumented plan's operator breakdown. *)
let instrumented_profile env sql : Json.t =
  let base_p = Setup.plan env sql in
  let hcn_p = Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql in
  let base, hcn =
    match Setup.compare_times env [ base_p; hcn_p ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let ops, audit_time_pct = operator_breakdown env hcn_p in
  Json.Obj
    [
      ("sessions", Json.Int 1);
      ("base_time_s", Json.Float base);
      ("instrumented_time_s", Json.Float hcn);
      ("audit_overhead_pct", Json.Float (Timing.overhead_pct ~base hcn));
      ("audit_operator_time_pct", Json.Float audit_time_pct);
      ("operators", Json.List (List.map op_json ops));
    ]

(* --------------------------------------------------------------- *)
(* Figure sections                                                  *)
(* --------------------------------------------------------------- *)

let fp_pct ~offline n =
  (float_of_int n -. float_of_int offline)
  /. float_of_int (max 1 offline)
  *. 100.0

let fig6_json env (rows : Figures.fig6_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.fig6_row) ->
         let sql = Figures.micro_sql r.Figures.f6_selectivity in
         Json.Obj
           [
             ("selectivity", Json.Float r.f6_selectivity);
             ("offline_accessed_ids", Json.Int r.f6_offline);
             ("hcn_audit_ids", Json.Int r.f6_hcn);
             ("leaf_audit_ids", Json.Int r.f6_leaf);
             ( "hcn_false_positive_pct",
               Json.Float (fp_pct ~offline:r.f6_offline r.f6_hcn) );
             ( "leaf_false_positive_pct",
               Json.Float (fp_pct ~offline:r.f6_offline r.f6_leaf) );
             ("hcn_profile", instrumented_profile env sql);
           ])
       rows)

let fig7_json (rows : Figures.fig7_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.fig7_row) ->
         Json.Obj
           [
             ("selectivity", Json.Float r.Figures.f7_selectivity);
             ("base_time_s", Json.Float r.f7_base);
             ("leaf_overhead_pct", Json.Float r.f7_leaf_pct);
             ("hcn_overhead_pct", Json.Float r.f7_hcn_pct);
             ("leaf_probes", Json.Int r.f7_leaf_probes);
             ("hcn_probes", Json.Int r.f7_hcn_probes);
           ])
       rows)

let fig8_json (rows : Figures.fig8_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.fig8_row) ->
         Json.Obj
           [
             ("audit_cardinality", Json.Int r.Figures.f8_cardinality);
             ("base_time_s", Json.Float r.f8_base);
             ("hcn_overhead_pct", Json.Float r.f8_hcn_pct);
           ])
       rows)

let fig9_json env (rows : Figures.fig9_row list) : Json.t =
  let sql_of id =
    List.find_map
      (fun (q : Tpch.Queries.query) ->
        if q.Tpch.Queries.id = id then Some q.Tpch.Queries.sql else None)
      Tpch.Queries.customer_workload
  in
  Json.List
    (List.map
       (fun (r : Figures.fig9_row) ->
         let profile =
           match sql_of r.Figures.f9_query with
           | Some sql -> instrumented_profile env sql
           | None -> Json.Null
         in
         Json.Obj
           [
             ("query", Json.Str r.f9_query);
             ("offline_accessed_ids", Json.Int r.f9_offline);
             ("hcn_audit_ids", Json.Int r.f9_hcn);
             ("leaf_audit_ids", Json.Int r.f9_leaf);
             ( "hcn_false_positive_pct",
               Json.Float (fp_pct ~offline:r.f9_offline r.f9_hcn) );
             ( "leaf_false_positive_pct",
               Json.Float (fp_pct ~offline:r.f9_offline r.f9_leaf) );
             ("hcn_profile", profile);
           ])
       rows)

let fig10_json (rows : Figures.fig10_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.fig10_row) ->
         Json.Obj
           [
             ("query", Json.Str r.Figures.f10_query);
             ("base_time_s", Json.Float r.f10_base);
             ("hcn_overhead_pct", Json.Float r.f10_hcn_pct);
           ])
       rows)

let ablation_idprop_json (rows : Figures.idprop_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.idprop_row) ->
         Json.Obj
           [
             ("query", Json.Str r.Figures.ip_query);
             ("base_time_s", Json.Float r.ip_base);
             ("id_propagation_overhead_pct", Json.Float r.ip_idprop_pct);
           ])
       rows)

let ablation_multi_json (rows : Figures.multi_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.multi_row) ->
         Json.Obj
           [
             ("audit_expressions", Json.Int r.Figures.mu_count);
             ("base_time_s", Json.Float r.mu_base);
             ("hcn_overhead_pct", Json.Float r.mu_pct);
           ])
       rows)

let ablation_provenance_json (rows : Figures.prov_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.prov_row) ->
         Json.Obj
           [
             ("query", Json.Str r.Figures.pr_query);
             ("base_time_s", Json.Float r.pr_base);
             ("hcn_overhead_pct", Json.Float r.pr_hcn_pct);
             ("lineage_slowdown_factor", Json.Float r.pr_lineage_factor);
           ])
       rows)

let ablation_static_json (rows : Figures.static_row list) : Json.t =
  Json.List
    (List.map
       (fun (r : Figures.static_row) ->
         Json.Obj
           [
             ("query", Json.Str r.Figures.st_query);
             ( "static_verdict",
               Json.Str (Db.Database.string_of_fga_verdict r.st_verdict) );
             ("offline_accessed_ids", Json.Int r.st_offline);
             ("hcn_audit_ids", Json.Int r.st_hcn);
           ])
       rows)

(** The Fig. 1 pipeline (§V-D): offline-only vs trigger-filtered exact
    verification of one mixed workload. *)
let pipeline_json (r : Pipeline.row) : Json.t =
  Json.Obj
    [
      ("workload_size", Json.Int r.Pipeline.workload_size);
      ("flagged", Json.Int r.flagged);
      ("candidate_ids_full", Json.Int r.candidate_ids_full);
      ("candidate_ids_filtered", Json.Int r.candidate_ids_filtered);
      ("online_overhead_pct", Json.Float r.online_overhead_pct);
      ("offline_full_time_s", Json.Float r.offline_full_time);
      ("offline_filtered_time_s", Json.Float r.offline_filtered_time);
    ]

(* --------------------------------------------------------------- *)
(* Expression compilation: before/after                             *)
(* --------------------------------------------------------------- *)

(** Before/after of the compiled-expression path. Each figure query is
    timed twice — once with [ctx.interpret_exprs] forcing the {!Exec.Eval}
    interpreter (the pre-refactor behaviour) and once with compiled
    closures — both plain and hcn-instrumented, so the report carries the
    refactor's speedup alongside the audit overhead under each mode. *)
let expr_compile_json (env : Setup.env) : Json.t =
  let ctx = Db.Database.context env.Setup.db in
  (* All four thunks (mode × plan) go through ONE compare_thunks call so
     its round-robin sampling hits both modes under the same GC and cache
     conditions — separate timing sessions would bias the speedup. The
     flag is read at operator-compile time, so setting it inside the thunk
     (before run_count recompiles the physical tree) is enough. *)
  let thunk ~interpret (p : Db.Database.prepared) () =
    ctx.Exec.Exec_ctx.interpret_exprs <- interpret;
    Exec.Exec_ctx.reset_query_state ctx;
    ignore (Exec.Executor.run_count ctx p.phys);
    ctx.Exec.Exec_ctx.interpret_exprs <- false
  in
  let timings sql =
    let base_p = Setup.plan env sql in
    let hcn_p = Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql in
    match
      Timing.compare_thunks ~warmup:env.Setup.cfg.Setup.warmup
        ~repeats:env.Setup.cfg.Setup.repeats
        [
          thunk ~interpret:true base_p; thunk ~interpret:true hcn_p;
          thunk ~interpret:false base_p; thunk ~interpret:false hcn_p;
        ]
    with
    | [ ib; ih; cb; ch ] -> ((ib, ih), (cb, ch))
    | _ -> assert false
  in
  let mode_json (base, hcn) =
    Json.Obj
      [
        ("sessions", Json.Int 1);
        ("base_time_s", Json.Float base);
        ("instrumented_time_s", Json.Float hcn);
        ("audit_overhead_pct", Json.Float (Timing.overhead_pct ~base hcn));
      ]
  in
  let speedup before after = if after > 0.0 then before /. after else 1.0 in
  let entry (id, sql) =
    let ((_, ih) as interp), ((_, ch) as comp) = timings sql in
    Json.Obj
      [
        ("query", Json.Str id);
        ("interpreted", mode_json interp);
        ("compiled", mode_json comp);
        ("instrumented_speedup", Json.Float (speedup ih ch));
      ]
  in
  let queries =
    ("fig6_micro", Figures.micro_sql 0.5)
    :: List.map
         (fun (q : Tpch.Queries.query) ->
           ("fig9_" ^ q.Tpch.Queries.id, q.Tpch.Queries.sql))
         Tpch.Queries.customer_workload
  in
  Json.List (List.map entry queries)

(* --------------------------------------------------------------- *)
(* Row vs compiled execution                                        *)
(* --------------------------------------------------------------- *)

(** Row engine vs the push-based compiled engine on the scan/filter-heavy
    figure workloads, across BOTH storage engines: the same query list
    runs once over heap tables and once over columnar tables (a second
    TPC-H load with the same seed), and every query object carries a
    ["storage"] stamp. As in {!expr_compile_json}, all four thunks per
    query (engine × plan) share ONE round-robin timing session, and each
    engine is timed both plain and hcn-instrumented so the report carries
    the audit overhead per storage mode alongside the compiled speedup.
    The [summary] block (overall and per-storage) is what CI gates on —
    including [best_selective_compiled_speedup], the compiled engine's
    best speedup over row on the selective queries (TPC-H Q6 and Q7 and
    the 20%-selectivity micro scan). The section keeps its historical
    [row_vs_batch] key. *)
let row_vs_batch_json (env : Setup.env) : Json.t =
  let envs =
    let with_storage st =
      if Db.Database.storage_mode env.Setup.db = st then env
      else Setup.prepare ~storage:st env.Setup.cfg
    in
    [
      ("heap", with_storage Storage.Table.Heap);
      ("columnar", with_storage Storage.Table.Columnar);
    ]
  in
  let speedup row other = if other > 0.0 then row /. other else 1.0 in
  let mode_json (base, hcn) =
    Json.Obj
      [
        ("sessions", Json.Int 1);
        ("base_time_s", Json.Float base);
        ("instrumented_time_s", Json.Float hcn);
        ("audit_overhead_pct", Json.Float (Timing.overhead_pct ~base hcn));
      ]
  in
  let queries =
    [
      ("fig6_micro_s20", Figures.micro_sql 0.2);
      ("fig6_micro_s50", Figures.micro_sql 0.5);
      ("fig6_micro_s80", Figures.micro_sql 0.8);
      ("tpch_Q1", (Tpch.Queries.find "Q1").Tpch.Queries.sql);
      ("tpch_Q6", (Tpch.Queries.find "Q6").Tpch.Queries.sql);
      (* Pure-scan aggregate: the count-only kernel reads the live-row
         count without touching tuple memory. *)
      ("scan_count_lineitem", "SELECT count(*) FROM lineitem");
    ]
    @ List.map
        (fun (q : Tpch.Queries.query) ->
          ("fig9_" ^ q.Tpch.Queries.id, q.Tpch.Queries.sql))
        Tpch.Queries.customer_workload
  in
  let entries_for (sname, env) =
    let ctx = Db.Database.context env.Setup.db in
    let thunk run (p : Db.Database.prepared) () =
      Exec.Exec_ctx.reset_query_state ctx;
      ignore (run ctx p.phys)
    in
    let timings sql =
      let base_p = Setup.plan env sql in
      let hcn_p = Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql in
      match
        Timing.compare_thunks ~warmup:env.Setup.cfg.Setup.warmup
          ~repeats:env.Setup.cfg.Setup.repeats
          [
            thunk Exec.Executor.run_count base_p;
            thunk Exec.Executor.run_count hcn_p;
            thunk Exec.Compiled_exec.run_count base_p;
            thunk Exec.Compiled_exec.run_count hcn_p;
          ]
      with
      | [ rb; rh; cb; ch ] -> ((rb, rh), (cb, ch))
      | _ -> assert false
    in
    let entry (id, sql) =
      let ((rb, rh) as row), ((cb, ch) as compiled) = timings sql in
      ( id,
        speedup rb cb,
        Json.Obj
          [
            ("query", Json.Str id);
            ("storage", Json.Str sname);
            ("row", mode_json row);
            ("compiled", mode_json compiled);
            ("compiled_speedup", Json.Float (speedup rb cb));
            ("instrumented_compiled_speedup", Json.Float (speedup rh ch));
          ] )
    in
    (sname, List.map entry queries)
  in
  let per_storage = List.map entries_for envs in
  let entries = List.concat_map snd per_storage in
  let best_among keep es =
    List.fold_left
      (fun (bi, bs) (id, s, _) ->
        if keep id && s > bs then (id, s) else (bi, bs))
      ("", 0.0) es
  in
  let is_fig6 id = String.length id >= 4 && String.sub id 0 4 = "fig6" in
  let find_speedup es id = snd (best_among (( = ) id) es) in
  (* The selective workloads where a fused push pipeline should shine:
     most rows die in the filters (Q6 keeps ~2% of lineitem, Q7's nation
     predicates keep 2 of 25 nations on each side, the micro scan keeps
     20%). *)
  let selective = [ "tpch_Q6"; "fig6_micro_s20"; "fig9_Q7" ] in
  let summary es =
    let best_id, best = best_among (fun _ -> true) es in
    let sel_id, sel = best_among (fun id -> List.mem id selective) es in
    [
      ("best_speedup", Json.Float best);
      ("best_query", Json.Str best_id);
      ("fig6_best_speedup", Json.Float (snd (best_among is_fig6 es)));
      ("best_selective_compiled_speedup", Json.Float sel);
      ("best_selective_compiled_query", Json.Str sel_id);
    ]
  in
  let storage_summary (sname, es) =
    ( sname,
      Json.Obj
        (summary es
        @ [
            ("tpch_q1_speedup", Json.Float (find_speedup es "tpch_Q1"));
            ("tpch_q6_speedup", Json.Float (find_speedup es "tpch_Q6"));
          ]) )
  in
  Json.Obj
    [
      ("queries", Json.List (List.map (fun (_, _, j) -> j) entries));
      ( "summary",
        Json.Obj
          (summary entries
          @ [ ("per_storage", Json.Obj (List.map storage_summary per_storage)) ]
          ) );
    ]

(** EXPLAIN ANALYZE text for the instrumented micro-join, embedded in the
    report so CI can assert that the physical tree still annotates
    estimated vs. actual row counts without re-running the engine. *)
let explain_sample (env : Setup.env) : Json.t =
  match
    Db.Database.exec env.Setup.db
      ("EXPLAIN ANALYZE " ^ Figures.micro_sql 0.5)
  with
  | Db.Database.Done text -> Json.Str text
  | _ -> Json.Null

(** Bechamel micro-benchmark estimates: operation name -> ns/run. *)
let micro_json (rows : (string * float option) list) : Json.t =
  Json.List
    (List.map
       (fun (name, est) ->
         Json.Obj
           [
             ("operation", Json.Str name);
             ( "ns_per_run",
               match est with Some ns -> Json.Float ns | None -> Json.Null );
           ])
       rows)

(* --------------------------------------------------------------- *)
(* FGA precision: plan-based analysis vs the legacy baseline       *)
(* --------------------------------------------------------------- *)

(** Per-query verdicts plus the summary CI gates on: the plan-based
    analysis's false-positive rate must sit strictly below the legacy
    analyzer's (recorded in {!Figures.fga_legacy_verdicts}), with zero
    false negatives for either (a NO-ACCESS verdict on a query whose audit
    operator accessed rows would be unsound). *)
let fga_precision_json (rows : Figures.fga_row list) : Json.t =
  let may v = v = Db.Database.May_access in
  let truth_zero = List.filter (fun r -> r.Figures.fga_truth = 0) rows in
  let fps verdict = List.length (List.filter (fun r -> may (verdict r)) truth_zero) in
  let fns verdict =
    List.length
      (List.filter (fun r -> (not (may (verdict r))) && r.Figures.fga_truth > 0) rows)
  in
  let rate n =
    match List.length truth_zero with 0 -> 0.0 | d -> float_of_int n /. float_of_int d
  in
  let legacy r = r.Figures.fga_legacy and abstract r = r.Figures.fga_abstract in
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : Figures.fga_row) ->
               Json.Obj
                 [
                   ("query", Json.Str r.Figures.fga_query);
                   ("description", Json.Str r.fga_desc);
                   ( "legacy_verdict",
                     Json.Str (Db.Database.string_of_fga_verdict r.fga_legacy) );
                   ( "abstract_verdict",
                     Json.Str
                       (Db.Database.string_of_fga_verdict r.fga_abstract) );
                   ("hcn_audit_ids", Json.Int r.fga_truth);
                 ])
             rows) );
      ( "summary",
        Json.Obj
          [
            ("queries", Json.Int (List.length rows));
            ("ground_truth_zero_access", Json.Int (List.length truth_zero));
            ("old_false_positives", Json.Int (fps legacy));
            ("new_false_positives", Json.Int (fps abstract));
            ("old_fp_rate", Json.Float (rate (fps legacy)));
            ("new_fp_rate", Json.Float (rate (fps abstract)));
            ("old_false_negatives", Json.Int (fns legacy));
            ("new_false_negatives", Json.Int (fns abstract));
          ] );
    ]

(* --------------------------------------------------------------- *)
(* Concurrency: served sessions and group commit                    *)
(* --------------------------------------------------------------- *)

(** Per-client-count rows from the served-engine benchmark, plus the
    summary CI gates on: with >= 4 concurrent sessions, group commit must
    amortize fsyncs across sessions (fsyncs/statement < 1). Single-figure
    sections above all carry ["sessions": 1] — these rows are where the
    count varies. *)
let concurrency_json (rows : Concurrency.row list) : Json.t =
  let row_json (r : Concurrency.row) =
    Json.Obj
      [
        ("sessions", Json.Int r.Concurrency.c_clients);
        ("statements", Json.Int r.c_statements);
        ("elapsed_s", Json.Float r.c_elapsed_s);
        ("qps", Json.Float r.c_qps);
        ("p50_ms", Json.Float r.c_p50_ms);
        ("p99_ms", Json.Float r.c_p99_ms);
        ("evidence_records", Json.Int r.c_records);
        ("fsyncs", Json.Int r.c_fsyncs);
        ("fsyncs_per_statement", Json.Float r.c_fsyncs_per_stmt);
        ("group_batches", Json.Int r.c_batches);
        ("max_batch_records", Json.Int r.c_max_batch);
      ]
  in
  let at_least_4 =
    List.filter (fun r -> r.Concurrency.c_clients >= 4) rows
  in
  let best =
    List.fold_left
      (fun acc r -> Float.min acc r.Concurrency.c_fsyncs_per_stmt)
      infinity at_least_4
  in
  let best = if Float.is_finite best then best else 0.0 in
  Json.Obj
    [
      ("rows", Json.List (List.map row_json rows));
      ( "summary",
        Json.Obj
          [
            ("best_fsyncs_per_statement_at_4plus", Json.Float best);
            ( "group_commit_amortizes",
              Json.Bool (at_least_4 <> [] && best < 1.0) );
          ] );
    ]

(* --------------------------------------------------------------- *)
(* Resilience: overload shedding and bounded recovery               *)
(* --------------------------------------------------------------- *)

(** Two sub-benchmarks. [overload]: served-statement p99 and shed rate
    at ~2x capacity, with and without admission control — the summary
    asserts that shedding happened and that it kept the served path's
    p99 below the uncontrolled convoy's. [recovery]: reopen cost vs log
    size for single-file (linear scan) vs segmented (manifest + tail
    only) audit logs. *)
let resilience_json (overload : Resilience.overload_row list)
    (recovery : Resilience.recovery_row list) : Json.t =
  let overload_row (r : Resilience.overload_row) =
    Json.Obj
      [
        ("admission_control", Json.Bool r.Resilience.o_admission);
        ("max_waiting", Json.Int (min r.o_max_waiting 1_000_000));
        ("clients", Json.Int r.o_clients);
        ("served", Json.Int r.o_served);
        ("shed", Json.Int r.o_shed);
        ("shed_rate", Json.Float r.o_shed_rate);
        ("qps", Json.Float r.o_qps);
        ("p50_ms", Json.Float r.o_p50_ms);
        ("p99_ms", Json.Float r.o_p99_ms);
      ]
  in
  let recovery_row (r : Resilience.recovery_row) =
    Json.Obj
      [
        ("records", Json.Int r.Resilience.r_records);
        ("single_file_open_ms", Json.Float r.r_single_ms);
        ("single_file_scanned_bytes", Json.Int r.r_single_scanned);
        ("segmented_open_ms", Json.Float r.r_seg_ms);
        ("segmented_scanned_bytes", Json.Int r.r_seg_scanned);
        ("segments", Json.Int r.r_segments);
      ]
  in
  let with_ac =
    List.find_opt (fun r -> r.Resilience.o_admission) overload
  in
  let without_ac =
    List.find_opt (fun r -> not r.Resilience.o_admission) overload
  in
  let sheds =
    match with_ac with Some r -> r.Resilience.o_shed > 0 | None -> false
  in
  (* Noise-tolerant: shedding must not blow up the served tail (the
     typical run improves it outright, but single-run p99 on a shared
     CI box is noisy, so the margin is generous). *)
  let bounds_p99 =
    match (with_ac, without_ac) with
    | Some a, Some b ->
      a.Resilience.o_p99_ms <= b.Resilience.o_p99_ms *. 1.5
    | _ -> false
  in
  let last = List.nth_opt recovery (List.length recovery - 1) in
  let first = List.nth_opt recovery 0 in
  let scan_bounded =
    match last with
    | Some r -> r.Resilience.r_seg_scanned < r.Resilience.r_single_scanned
    | None -> false
  in
  let scan_flat =
    match (first, last) with
    | Some f, Some l ->
      l.Resilience.r_seg_scanned < 4 * max 1 f.Resilience.r_seg_scanned
    | _ -> false
  in
  Json.Obj
    [
      ("overload", Json.List (List.map overload_row overload));
      ("recovery", Json.List (List.map recovery_row recovery));
      ( "summary",
        Json.Obj
          [
            ("admission_control_sheds", Json.Bool sheds);
            ("admission_control_bounds_p99", Json.Bool bounds_p99);
            ("segmented_recovery_bounded", Json.Bool scan_bounded);
            ("segmented_recovery_flat", Json.Bool scan_flat);
          ] );
    ]

(* --------------------------------------------------------------- *)
(* Assembly                                                         *)
(* --------------------------------------------------------------- *)

let assemble (env : Setup.env) ~(sections : (string * Json.t) list)
    ~(elapsed_s : float) : Json.t =
  Json.Obj
    [
      ("report", Json.Str "select-triggers-bench");
      ("schema_version", Json.Int 3);
      ("generated_at_unix", Json.Float (Unix.time ()));
      ( "config",
        Json.Obj
          [
            ("scale_factor", Json.Float env.Setup.cfg.Setup.sf);
            ("seed", Json.Int env.Setup.cfg.Setup.seed);
            ("repeats", Json.Int env.Setup.cfg.Setup.repeats);
            ("warmup", Json.Int env.Setup.cfg.Setup.warmup);
            ("customers", Json.Int env.Setup.sizes.Tpch.Dbgen.customers);
            ("orders", Json.Int env.Setup.sizes.Tpch.Dbgen.orders);
            ( "sensitive_ids",
              Json.Int (Audit_core.Sensitive_view.cardinality env.Setup.view)
            );
          ] );
      ("elapsed_s", Json.Float elapsed_s);
      ("sections", Json.Obj sections);
    ]

(* --------------------------------------------------------------- *)
(* Certified probe elision                                          *)
(* --------------------------------------------------------------- *)

let elision_json (rows : Figures.elision_row list) : Json.t =
  let independent =
    List.filter (fun r -> r.Figures.el_verdict = "Independent") rows
  in
  let elided_overheads =
    List.map (fun r -> Figures.el_overhead_elided r) independent
  in
  let max_elided_overhead = List.fold_left max 0.0 elided_overheads in
  (* Per-query overheads on sub-millisecond queries are clock noise; the
     aggregate (total elided time vs total plain time over the certified
     queries) is the stable ~0% statistic CI gates on. *)
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 independent in
  let aggregate_overhead =
    let plain = sum (fun r -> r.Figures.el_t_plain) in
    if plain <= 0.0 then 0.0
    else (sum (fun r -> r.Figures.el_t_elided) -. plain) /. plain *. 100.0
  in
  let failures =
    List.length (List.filter (fun r -> not r.Figures.el_sound) rows)
    + List.length (List.filter (fun r -> not r.Figures.el_certs_valid) rows)
  in
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : Figures.elision_row) ->
               Json.Obj
                 [
                   ("query", Json.Str r.Figures.el_query);
                   ("description", Json.Str r.el_desc);
                   ("verdict", Json.Str r.el_verdict);
                   ("probes_before", Json.Int r.el_probes_before);
                   ("probes_after", Json.Int r.el_probes_after);
                   ("t_plain_s", Json.Float r.el_t_plain);
                   ("t_kept_s", Json.Float r.el_t_kept);
                   ("t_elided_s", Json.Float r.el_t_elided);
                   ( "overhead_kept_pct",
                     Json.Float (Figures.el_overhead_kept r) );
                   ( "overhead_elided_pct",
                     Json.Float (Figures.el_overhead_elided r) );
                   ("certificates_valid", Json.Bool r.el_certs_valid);
                   ("sound", Json.Bool r.el_sound);
                 ])
             rows) );
      ( "summary",
        Json.Obj
          [
            ("independent_count", Json.Int (List.length independent));
            ( "elided_probe_count",
              Json.Int
                (List.fold_left
                   (fun acc r ->
                     acc + r.Figures.el_probes_before
                     - r.Figures.el_probes_after)
                   0 rows) );
            ("max_elided_overhead_pct", Json.Float max_elided_overhead);
            ( "aggregate_elided_overhead_pct",
              Json.Float aggregate_overhead );
            ( "independent_probes_after",
              Json.Int
                (List.fold_left
                   (fun a r -> a + r.Figures.el_probes_after)
                   0 independent) );
            ("mutation_cases", Json.Int (List.length rows));
            ("soundness_failures", Json.Int failures);
          ] );
    ]
