(** Shared experiment environment: a loaded TPC-H database with the §V audit
    expression (one market segment of the Customer table). *)

type config = {
  sf : float;  (** TPC-H scale factor *)
  seed : int;
  repeats : int;  (** timing repetitions (median taken) *)
  warmup : int;
}

let default_config = { sf = 0.01; seed = 42; repeats = 3; warmup = 1 }

type env = {
  cfg : config;
  db : Db.Database.t;
  sizes : Tpch.Dbgen.sizes;
  audit_name : string;
  view : Audit_core.Sensitive_view.t;
}

(** Load TPC-H and declare the audit expression
    [c_mktsegment = 'BUILDING' PARTITION BY c_custkey]. [storage] is the
    table representation (default heap) — the row-vs-compiled section
    loads one environment per storage engine to report both sides of the
    matrix. *)
let prepare ?(storage = Storage.Table.Heap) (cfg : config) : env =
  let db =
    Db.Database.create ~config:{ Db.Config.default with storage } ()
  in
  let sizes = Tpch.Dbgen.load ~seed:cfg.seed db ~sf:cfg.sf in
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  let view = Db.Database.audit_view db "audit_customer" in
  { cfg; db; sizes; audit_name = "audit_customer"; view }

let describe env =
  Printf.sprintf
    "TPC-H sf=%g (%d customers, %d orders, %d sensitive IDs in segment \
     BUILDING), %d repeats"
    env.cfg.sf env.sizes.Tpch.Dbgen.customers env.sizes.Tpch.Dbgen.orders
    (Audit_core.Sensitive_view.cardinality env.view)
    env.cfg.repeats

(* --------------------------------------------------------------- *)
(* Common measurement helpers                                       *)
(* --------------------------------------------------------------- *)

(** Prepare a SQL text with a given heuristic (or uninstrumented). *)
let plan env ?heuristic sql =
  match heuristic with
  | None -> Db.Database.prepare_sql env.db ~audits:[] sql
  | Some h ->
    Db.Database.prepare_sql env.db ~audits:[ env.audit_name ] ~heuristic:h sql

(** Run a prepared plan, returning the number of distinct audited IDs. *)
let audit_cardinality env p =
  ignore (Db.Database.run_plan_count env.db p);
  Exec.Exec_ctx.accessed_count
    (Db.Database.context env.db)
    ~audit_name:env.audit_name

(** Compare execution times of several prepared plans fairly
    (auto-batched, interleaved, min-of-samples — see
    {!Benchkit.Timing.compare_thunks}). Planning and lowering happened in
    [prepare], outside the timed region: they are per-query costs, not
    per-row ones. Returns one time per plan, in order. *)
let compare_times env ps =
  Benchkit.Timing.compare_thunks ~warmup:env.cfg.warmup
    ~repeats:env.cfg.repeats
    (List.map (fun p () -> ignore (Db.Database.run_plan_count env.db p)) ps)

(** Per-plan audit-operator activity: rows probed, sensitive hits. *)
let probe_stats env p =
  let ctx = Db.Database.context env.db in
  ignore (Db.Database.run_plan_count env.db p);
  (ctx.Exec.Exec_ctx.audit_probes, ctx.Exec.Exec_ctx.audit_hits)

(** Offline (provenance-rewrite) accessed cardinality for a SQL text. *)
let offline_cardinality env sql =
  List.length
    (Db.Database.lineage env.db ~audit:env.audit_name
       (Db.Database.plan_sql env.db ~audits:[] sql))
