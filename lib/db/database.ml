(** The database facade: a single-session engine with SELECT triggers.

    [exec db sql] runs one statement through the full pipeline:
    parse → bind → logical optimize → audit-operator placement (for every
    audit expression watched by a SELECT trigger) → column pruning →
    lower → elide → verify → execute → fire triggers. Every statement
    that reads rows takes the same read pipeline ([prepare], [enforce],
    [run]).

    Trigger semantics follow §II:
    - A SELECT trigger's action runs after the query completes — even if
      query execution aborts mid-way — with the per-query [ACCESSED] state
      exposed as a relation named [accessed].
    - DML triggers run after INSERT/UPDATE/DELETE statements with the
      affected rows exposed as relations [new] and [old] (SQL Server's
      statement-level inserted/deleted).
    - These relations are bound in the session's catalog scope for the
      action's extent, never added to the shared catalog, so the action's
      reads are ordinary cached shapes.
    - Triggers cascade; a depth limit guards against loops.
    - [now()] is a logical clock (statement counter), [user_id()] the
      session user, [sql_text()] the outermost statement's text. *)

open Storage

exception Db_error of string

exception Access_denied of string
(** raised when a BEFORE RETURN trigger executes [DENY]: the query ran and
    its accesses were audited, but its result is withheld *)

let err fmt = Fmt.kstr (fun s -> raise (Db_error s)) fmt

type audit_entry = {
  expr : Audit_core.Audit_expr.t;
  view : Audit_core.Sensitive_view.t;
  info : Analysis.Independence.audit_info;
      (** the expression as the independence analysis sees it; one record
          per expression, so the analysis builds its audit side once *)
}

exception Deny_signal of string
(** internal: aborts a BEFORE RETURN action at the DENY statement *)

type verify_mode = Config.verify_mode = Off | Warn | Strict
type elision_mode = Config.elision_mode = Elide_off | Elide_certified

(* ------------------------------------------------------------------ *)
(* Statement shapes                                                    *)
(* ------------------------------------------------------------------ *)

(* A statement's shape is its optimized logical plan with every literal
   but TRUE, FALSE and NULL lifted into a slot (Scalar.lift). Everything
   [prepare] derives from the optimized plan before the independence
   analysis — placement, pruning, lowering and the verifier's verdict —
   reads no literal's value, so it is built once per shape and filled
   with each statement's literals. So is the independence analysis of a
   shape that no literal can certify ([scope]). [stamp] records
   everything else it read; a shape whose stamp no longer matches the
   session is rebuilt. *)

type stamp = {
  settings :
    Audit_core.Placement.heuristic * elision_mode * verify_mode * bool;
      (** the session's heuristic, elision, verify and instrumentation *)
  epoch : int;  (** the catalog epoch: schemas, keys, indexes, audits *)
  rows : (string * int) list;
      (** per scanned name, its row count (what cardinality estimates
          read); 0 for a name the catalog lacks (the FROM-less SELECT's
          dual) *)
}

type built = {
  stamp : stamp;
  placed : Plan.Logical.t;  (** placed and pruned, with slots *)
  slotted : Plan.Physical.t;  (** [placed], lowered *)
  entries : audit_entry list;
  heuristic : Audit_core.Placement.heuristic;
  specs : Analysis.Plan_verify.audit_spec list;
  verdict : Analysis.Plan_verify.violation list Lazy.t;
      (** the verifier on [placed] and [slotted] with no certificates *)
  scope : Analysis.Independence.scope Lazy.t;
      (** whether a literal can change the independence verdicts, forced
          on the shape's first hit *)
}

module Shape_key = struct
  type t = {
    hash : int;
    heuristic : Audit_core.Placement.heuristic option;
    audits : string list option;
    prune : bool;
    plan : Plan.Logical.t;  (** the optimized plan, with slots *)
  }

  let hash k = k.hash

  let equal a b =
    a.hash = b.hash && a.prune = b.prune && a.heuristic = b.heuristic
    && a.audits = b.audits && a.plan = b.plan
end

module Shapes = Hashtbl.Make (Shape_key)

type shape = {
  mutable built : built;
  mutable hits : int;  (** executions served without building *)
  mutable rebuilds : int;
  mutable reason : string option;  (** why it was last rebuilt *)
  mutable used : int;  (** the cache's clock at the last use *)
}

(* The bound on shapes kept per session; the least recently used one
   makes room for a new shape. *)
let max_shapes = 64

type t = {
  catalog : Catalog.t;
  ctx : Exec.Exec_ctx.t;
  audits : (string, audit_entry) Hashtbl.t;
  triggers : Audit_core.Trigger.manager;
  mutable heuristic : Audit_core.Placement.heuristic;
  mutable instrument : bool;  (** master switch for SELECT triggers *)
  mutable notifications : string list;  (** NOTIFY output, oldest first *)
  mutable trigger_depth : int;
  mutable in_before_trigger : bool;
  mutable last_accessed : (string * Value.t list) list;
      (** per-audit ACCESSED of the last top-level statement that read
          rows (diagnostics) *)
  mutable last_stats : Exec.Metrics.op_report list option;
      (** per-operator stats of the last metrics-collected query *)
  mutable wal : Audit_log.Wal.t option;
      (** durable audit log; when attached, every top-level statement's
          ACCESSED sets and trigger firings are appended and fsynced
          before results are released *)
  mutable deferred : bool;
      (** deferred-evidence mode (served sessions): instead of writing to
          an attached log, evidence records accumulate in [pending_log];
          the caller takes them with [take_pending_evidence] and must make
          them durable (group commit) before releasing the statement's
          results *)
  mutable pending_log : Audit_log.Wal.record list;
      (** deferred evidence of the current statement, newest first *)
  mutable alarms : string list;
      (** robustness alarms (fail-open log losses, invariant repairs),
          newest first *)
  mutable config : Config.t;
      (** engine, storage for tables created from now on, probe elision
          and plan verification; {!create_session} copies it *)
  mutable last_elision : Analysis.Independence.decision list Lazy.t;
      (** per-probe verdicts of the last [prepare] (EXPLAIN / [\verify]
          diagnostics) *)
  fired : (string * Value.t, unit) Hashtbl.t;
      (** per audit expression, the IDs the current statement has passed
          to its AFTER triggers *)
  epoch : int ref;
      (** the catalog epoch, shared by every session: bumped by each DDL
          statement (CREATE or DROP of a table, index, audit expression or
          trigger) *)
  shapes : shape Shapes.t;  (** this session's statement shapes *)
  mutable clock : int;  (** prepares through [shapes], for eviction *)
}

let max_trigger_depth = 8

let create ?(config = Config.default) () =
  let catalog = Catalog.create () in
  {
    catalog;
    ctx = Exec.Exec_ctx.create catalog;
    audits = Hashtbl.create 8;
    triggers = Audit_core.Trigger.create_manager ();
    heuristic = Audit_core.Placement.Hcn;
    instrument = true;
    notifications = [];
    trigger_depth = 0;
    in_before_trigger = false;
    last_accessed = [];
    last_stats = None;
    wal = None;
    deferred = false;
    pending_log = [];
    alarms = [];
    config;
    last_elision = Lazy.from_val [];
    fired = Hashtbl.create 8;
    epoch = ref 0;
    shapes = Shapes.create 16;
    clock = 0;
  }

(** A further session over the same engine: the catalog's tables, audit
    expressions and triggers are shared by reference (DDL from any
    session is visible to all), while everything per-session is fresh —
    the catalog scope that binds trigger relations, the execution context
    (user, logical clock, budgets, fault kit), trigger depth,
    notifications, alarms, metrics and pending evidence. Statement
    execution is {e not} internally synchronized: concurrent sessions
    must serialize [exec] externally (the server layer holds one
    statement lock); evidence commit can then overlap across sessions
    via the deferred sink + group commit. *)
let create_session ?(session_id = 0) parent =
  let catalog = Catalog.session parent.catalog in
  {
    catalog;
    ctx = Exec.Exec_ctx.create ~session_id catalog;
    audits = parent.audits;
    triggers = parent.triggers;
    heuristic = parent.heuristic;
    instrument = parent.instrument;
    notifications = [];
    trigger_depth = 0;
    in_before_trigger = false;
    last_accessed = [];
    last_stats = None;
    wal = None;
    deferred = parent.deferred;
    pending_log = [];
    alarms = [];
    config = parent.config;
    last_elision = Lazy.from_val [];
    fired = Hashtbl.create 8;
    epoch = parent.epoch;
    shapes = Shapes.create 16;
    clock = 0;
  }

let catalog db = db.catalog
let context db = db.ctx
let session_id db = db.ctx.Exec.Exec_ctx.session_id
let config db = db.config
let set_exec_mode db exec = db.config <- { db.config with exec }
let exec_mode db = db.config.exec
let set_storage_mode db storage = db.config <- { db.config with storage }
let storage_mode db = db.config.storage
let set_elision_mode db elision = db.config <- { db.config with elision }
let elision_mode db = db.config.elision
let last_elision db = Lazy.force db.last_elision

let set_user db u = db.ctx.Exec.Exec_ctx.user <- u
let user db = db.ctx.Exec.Exec_ctx.user
let set_heuristic db h = db.heuristic <- h
let set_instrumentation db b = db.instrument <- b
let set_verify_plans db verify = db.config <- { db.config with verify }
let verify_plans_mode db = db.config.verify
let notifications db = List.rev db.notifications
let clear_notifications db = db.notifications <- []
let last_accessed db = db.last_accessed
let trigger_manager db = db.triggers

(** Collect per-operator metrics for every subsequent query (also switched
    on transiently by EXPLAIN ANALYZE). Off by default: the wrapper costs
    two clock reads per row per operator. *)
let set_collect_metrics db b =
  Exec.Metrics.set_enabled db.ctx.Exec.Exec_ctx.metrics b

let last_query_stats db = db.last_stats

(** {2 Robustness: guards, faults, alarms, audit log} *)

let set_timeout db s = db.ctx.Exec.Exec_ctx.timeout_s <- s
let set_row_budget db b = db.ctx.Exec.Exec_ctx.row_budget <- b
let set_mem_budget db b = db.ctx.Exec.Exec_ctx.mem_budget <- b
let faults db = db.ctx.Exec.Exec_ctx.faults
let trigger_depth db = db.trigger_depth
let alarms db = List.rev db.alarms
let clear_alarms db = db.alarms <- []

(** Record an alarm, with a best-effort (never-raising) note in the log. *)
let alarm db msg =
  db.alarms <- msg :: db.alarms;
  if db.deferred then
    db.pending_log <- Audit_log.Wal.Note msg :: db.pending_log
  else
    match db.wal with
    | Some w when Audit_log.Wal.is_open w -> (
      try Audit_log.Wal.append w (Audit_log.Wal.Note msg)
      with Engine_core.Engine_error.Error _ -> ())
    | _ -> ()

let audit_log db = db.wal

(** {2 Deferred evidence (served sessions)} *)

(* In deferred mode the session writes no log itself: evidence records
   pile up in [pending_log] and the caller — the server's per-connection
   loop — takes them after the statement and submits them to the shared
   group-commit writer before releasing the results. This moves the fsync
   off the statement path so concurrent sessions' records share one
   flush. *)
let set_deferred_evidence db b = db.deferred <- b
let deferred_evidence db = db.deferred

(** The statement's accumulated evidence, oldest first; clears the
    buffer. *)
let take_pending_evidence db =
  let records = List.rev db.pending_log in
  db.pending_log <- [];
  records

let detach_audit_log db =
  match db.wal with
  | None -> ()
  | Some w ->
    (try Audit_log.Wal.sync w with Engine_core.Engine_error.Error _ -> ());
    Audit_log.Wal.close w;
    db.wal <- None

(** Attach (open or create) the durable audit log at [path]. Recovery
    keeps every intact record and truncates a torn tail; a non-empty
    truncation raises an alarm. *)
let attach_audit_log db ?policy path : Audit_log.Wal.recovery =
  detach_audit_log db;
  let w, recovery =
    Audit_log.Wal.open_ ?policy ~faults:db.ctx.Exec.Exec_ctx.faults path
  in
  db.wal <- Some w;
  if recovery.Audit_log.Wal.truncated_bytes > 0 then
    alarm db
      (Printf.sprintf
         "audit log recovery: kept %d intact records, truncated %d %s bytes"
         recovery.Audit_log.Wal.valid_records
         recovery.Audit_log.Wal.truncated_bytes
         (if recovery.Audit_log.Wal.corrupt then "corrupt" else "torn"));
  recovery

(* Append one record under the configured failure policy: fail-closed
   re-raises the typed [Log_io] error (the caller withholds results);
   fail-open records an alarm and keeps going. *)
let log_append db (r : Audit_log.Wal.record) =
  if db.deferred then db.pending_log <- r :: db.pending_log
  else
  match db.wal with
  | None -> ()
  | Some w -> (
    try Audit_log.Wal.append w r
    with
    | Engine_core.Engine_error.Error (Engine_core.Engine_error.Log_io m) as e
    -> (
      match Audit_log.Wal.policy w with
      | Audit_log.Wal.Fail_closed -> raise e
      | Audit_log.Wal.Fail_open ->
        db.alarms <-
          Printf.sprintf "audit record lost (fail-open): %s" m :: db.alarms))

let log_sync db =
  if db.deferred then ()
  else
  match db.wal with
  | None -> ()
  | Some w -> (
    try Audit_log.Wal.sync w
    with
    | Engine_core.Engine_error.Error (Engine_core.Engine_error.Log_io m) as e
    -> (
      match Audit_log.Wal.policy w with
      | Audit_log.Wal.Fail_closed -> raise e
      | Audit_log.Wal.Fail_open ->
        db.alarms <-
          Printf.sprintf "audit log sync lost (fail-open): %s" m :: db.alarms))

(** Write the current statement's ACCESSED sets (read fresh, so trigger
    cascades are included) and make the log durable. [complete = false]
    marks a flush on abort/cancellation. *)
let log_statement_accessed db ~complete =
  if db.deferred || db.wal <> None then begin
    Hashtbl.iter
      (fun name entry ->
        let ids = Exec.Exec_ctx.accessed_list db.ctx ~audit_name:name in
        if ids <> [] then
          log_append db
            (Audit_log.Wal.Accessed
               {
                 session = db.ctx.Exec.Exec_ctx.session_id;
                 seq = db.ctx.Exec.Exec_ctx.now;
                 user = db.ctx.Exec.Exec_ctx.user;
                 sql = db.ctx.Exec.Exec_ctx.sql;
                 audit = entry.expr.Audit_core.Audit_expr.name;
                 ids = List.map Value.to_string ids;
                 complete;
               }))
      db.audits;
    log_sync db
  end

let norm = String.lowercase_ascii

let audit_entry db name =
  match Hashtbl.find_opt db.audits (norm name) with
  | Some e -> e
  | None -> err "unknown audit expression %s" name

let audit_view db name = (audit_entry db name).view
let audit_expr db name = (audit_entry db name).expr

let audit_names db =
  Hashtbl.fold (fun _ e acc -> e.expr.Audit_core.Audit_expr.name :: acc)
    db.audits []
  |> List.sort String.compare

(* Per audit expression (by name), the IDs the ACCESSED logs hold. *)
let logged db =
  List.filter_map
    (fun name ->
      match Exec.Exec_ctx.accessed_list db.ctx ~audit_name:name with
      | [] -> None
      | ids -> Some (name, ids))
    (audit_names db)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result =
  | Rows of { schema : Schema.t; rows : Tuple.t list }
  | Affected of int
  | Done of string

let result_to_string = function
  | Affected n -> Printf.sprintf "(%d rows affected)" n
  | Done msg -> msg
  | Rows { schema; rows } ->
    let b = Buffer.create 256 in
    let cols = Array.to_list schema in
    Buffer.add_string b
      (String.concat " | " (List.map (fun c -> c.Schema.name) cols));
    Buffer.add_char b '\n';
    List.iter
      (fun row ->
        Buffer.add_string b
          (String.concat " | "
             (List.map Value.to_string (Array.to_list row)));
        Buffer.add_char b '\n')
      rows;
    Buffer.add_string b (Printf.sprintf "(%d rows)" (List.length rows));
    Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Planning helpers                                                    *)
(* ------------------------------------------------------------------ *)

(** Install every audit's sensitive-ID set into the execution context (the
    materialized views the physical audit operators probe). *)
let install_audit_sets db =
  Hashtbl.iter
    (fun name e ->
      Exec.Exec_ctx.set_audit_ids db.ctx ~audit_name:name
        (Audit_core.Sensitive_view.ids e.view))
    db.audits

(* Which audit expressions instrument a statement: an explicit list of
   names, or (by default) those watched by at least one SELECT trigger. *)
let selected_audits db ?audits () =
  match audits with
  | Some names -> List.map (audit_entry db) names
  | None ->
    if db.instrument then
      Audit_core.Trigger.watched_audits db.triggers
      |> List.filter_map (fun n -> Hashtbl.find_opt db.audits n)
    else []

let optimize db q =
  Plan.Optimizer.logical_optimize ~catalog:db.catalog
    (Plan.Binder.query db.catalog q)

(* Placement of the selected audit expressions, then pruning. *)
let place ~heuristic ~entries ~prune plan =
  let plan =
    Audit_core.Placement.instrument_all heuristic
      ~audits:(List.map (fun e -> e.expr) entries)
      plan
  in
  if prune then Plan.Optimizer.prune plan else plan

let plan_query db ?heuristic ?audits ?(prune = true) (q : Sql.Ast.query) :
    Plan.Logical.t =
  place
    ~heuristic:(Option.value heuristic ~default:db.heuristic)
    ~entries:(selected_audits db ?audits ())
    ~prune (optimize db q)

let plan_sql db ?heuristic ?audits ?prune sql =
  plan_query db ?heuristic ?audits ?prune (Sql.Parser.query sql)

(** Lower a logical plan to the physical tree the executor consumes: join
    strategies, equi-keys and per-node cardinality estimates are decided
    here, against the live catalog. *)
let physical db plan = Plan.Physical.plan_of_logical ~catalog:db.catalog plan

let physical_sql db ?heuristic ?audits ?prune sql =
  physical db (plan_sql db ?heuristic ?audits ?prune sql)

(* ------------------------------------------------------------------ *)
(* The read pipeline                                                   *)
(* ------------------------------------------------------------------ *)

(* Every statement that reads rows — SELECT, INSERT ... SELECT, the
   rows an UPDATE or DELETE modifies, an IF condition, each EXPLAIN
   form — and every harness run goes through the same stages:
   [prepare] (bind, optimize, place, prune, lower, elide, install the
   probed sets), then [enforce] or [violations] (the verifier), then
   [run] (the engine dispatch), then the statement fires its triggers. *)

type prepared = {
  plan : Plan.Logical.t;
  lowered : Plan.Physical.t;
  phys : Plan.Physical.t;
  certificates : Analysis.Certificate.t list;
  decisions : Analysis.Independence.decision list Lazy.t;
  heuristic : Audit_core.Placement.heuristic;
  specs : Analysis.Plan_verify.audit_spec list;
  verdict : Analysis.Plan_verify.violation list Lazy.t option;
      (** the verdict of the statement's shape, when it came from one *)
}

(* The independence analysis of [phys]'s probes of [entries]. *)
let analyze db entries phys =
  Analysis.Independence.analyze_plan ~catalog:db.catalog
    ~audits:(List.map (fun e -> e.info) entries)
    phys

let specs_of entries =
  List.map
    (fun e ->
      {
        Analysis.Plan_verify.name = e.expr.Audit_core.Audit_expr.name;
        sensitive_table = e.expr.Audit_core.Audit_expr.sensitive_table;
        partition_by = e.expr.Audit_core.Audit_expr.partition_by;
      })
    entries

(* Leaf-heuristic probes sit at or below hcn positions, so both verify
   against the hcn commute relation (Claim 3.6). Highest is checked
   against its own, wider relation: the verifier then certifies position
   consistency only, matching the heuristic's weaker guarantee. *)
let check ~heuristic ~specs ~certificates plan phys =
  let commute =
    match heuristic with
    | Audit_core.Placement.Leaf | Audit_core.Placement.Hcn ->
      Analysis.Plan_verify.hcn_commute
    | Audit_core.Placement.Highest -> Analysis.Plan_verify.highest_commute
  in
  Analysis.Plan_verify.verify_logical ~commute ~audits:specs plan
  @ Analysis.Plan_verify.verify ~commute ~certificates ~audits:specs phys

(* A shape's clean verdict stands for every statement of that shape
   whose analysis certified nothing: the verifier reads no literal. Any
   other statement is verified as it is, so a violation names its own
   literals. *)
let violations p =
  match (p.certificates, p.verdict) with
  | [], Some v when Lazy.force v = [] -> []
  | _ ->
    check ~heuristic:p.heuristic ~specs:p.specs ~certificates:p.certificates
      p.plan p.phys

(* The per-statement end of [prepare]: the independence analysis and
   elision (certificates depend on the literals), then the probed sets.
   A statement of a shape no literal can certify ([per_shape]) skips
   both: its plan is [lowered], and its decisions, which certify
   nothing, are analysed only if a diagnostic asks for them. *)
let finish db ~heuristic ~entries ~specs ~verdict ~per_shape plan lowered =
  let phys, certificates, decisions =
    match (db.config.elision, entries) with
    | Elide_off, _ | Elide_certified, [] -> (lowered, [], Lazy.from_val [])
    | Elide_certified, _ when per_shape ->
      (lowered, [], lazy (analyze db entries lowered))
    | Elide_certified, _ ->
      let decisions = analyze db entries lowered in
      if
        List.exists
          (fun (d : Analysis.Independence.decision) -> d.certificate <> None)
          decisions
      then
        let r = Analysis.Elide.apply ~decisions lowered in
        (r.Analysis.Elide.plan, r.Analysis.Elide.certificates, Lazy.from_val decisions)
      else (lowered, [], Lazy.from_val decisions)
  in
  db.last_elision <- decisions;
  install_audit_sets db;
  { plan; lowered; phys; certificates; decisions; heuristic; specs; verdict }

let prepare_plan (db : t) ?heuristic ?audits plan =
  let entries = selected_audits db ?audits () in
  finish db
    ~heuristic:(Option.value heuristic ~default:db.heuristic)
    ~entries ~specs:(specs_of entries) ~verdict:None ~per_shape:false plan
    (physical db plan)

let settings (db : t) =
  (db.heuristic, db.config.elision, db.config.verify, db.instrument)

let rows_of (db : t) name =
  match Catalog.find_opt db.catalog name with
  | Some t -> Table.cardinality t
  | None -> 0

(* Why [b] no longer describes the session, if it does not. *)
let stale (db : t) b =
  if b.stamp.epoch <> !(db.epoch) then Some "catalog epoch"
  else if b.stamp.settings <> settings db then Some "session setting"
  else if List.exists (fun (name, rows) -> rows_of db name <> rows) b.stamp.rows
  then Some "row count"
  else None

let build (db : t) (k : Shape_key.t) =
  let heuristic = Option.value k.heuristic ~default:db.heuristic in
  let entries = selected_audits db ?audits:k.audits () in
  let specs = specs_of entries in
  let placed = place ~heuristic ~entries ~prune:k.prune k.plan in
  let slotted = physical db placed in
  let rows =
    Plan.Logical.scan_tables placed
    |> List.map fst
    |> List.sort_uniq String.compare
    |> List.map (fun name -> (name, rows_of db name))
  in
  {
    stamp = { settings = settings db; epoch = !(db.epoch); rows };
    placed;
    slotted;
    entries;
    heuristic;
    specs;
    verdict =
      lazy (check ~heuristic ~specs ~certificates:[] placed slotted);
    scope =
      lazy
        (match (db.config.elision, entries) with
        | Elide_off, _ | Elide_certified, [] -> Analysis.Independence.Shape
        | Elide_certified, _ ->
          Analysis.Independence.shape_scope ~catalog:db.catalog
            ~audits:(List.map (fun e -> e.info) entries)
            slotted);
  }

(* The shape of [k], built or rebuilt as needed, counted as used, and
   whether it was a hit. *)
let shape (db : t) (k : Shape_key.t) =
  db.clock <- db.clock + 1;
  match Shapes.find_opt db.shapes k with
  | Some s ->
    let hit =
      match stale db s.built with
      | None ->
        s.hits <- s.hits + 1;
        true
      | Some why ->
        s.built <- build db k;
        s.rebuilds <- s.rebuilds + 1;
        s.reason <- Some why;
        false
    in
    s.used <- db.clock;
    (s.built, hit)
  | None ->
    if Shapes.length db.shapes >= max_shapes then begin
      let oldest =
        Shapes.fold
          (fun k s acc ->
            match acc with
            | Some (_, u) when u <= s.used -> acc
            | _ -> Some (k, s.used))
          db.shapes None
      in
      Option.iter (fun (k, _) -> Shapes.remove db.shapes k) oldest
    end;
    let s =
      { built = build db k; hits = 0; rebuilds = 0; reason = None; used = db.clock }
    in
    Shapes.replace db.shapes k s;
    (s.built, false)

(* Lift the literals of the optimized plan (constant folding and literal
   coercion happened there) and fill its shape's plans with them. *)
let prepare (db : t) ?heuristic ?audits ?(prune = true) q =
  let optimized = optimize db q in
  let lits = ref [] and n = ref 0 in
  let next v =
    lits := v :: !lits;
    incr n;
    !n - 1
  in
  let plan = Plan.Logical.map_scalars (Plan.Scalar.lift next) optimized in
  let b, hit =
    shape db
      {
        Shape_key.hash =
          Hashtbl.hash (Hashtbl.hash_param 64 256 plan, heuristic, audits, prune);
        heuristic;
        audits;
        prune;
        plan;
      }
  in
  let plan, lowered =
    match !lits with
    | [] -> (b.placed, b.slotted)
    | l ->
      let fill = Plan.Scalar.fill (Array.of_list (List.rev l)) in
      (Plan.Logical.map_scalars fill b.placed, Plan.Physical.map_scalars fill b.slotted)
  in
  (* Classified on the first hit, so a shape that never repeats pays
     nothing for it. *)
  let per_shape = hit && Lazy.force b.scope = Analysis.Independence.Shape in
  finish db ~heuristic:b.heuristic ~entries:b.entries ~specs:b.specs
    ~verdict:(Some b.verdict) ~per_shape plan lowered

let prepare_sql db ?heuristic ?audits ?prune sql =
  prepare db ?heuristic ?audits ?prune (Sql.Parser.query sql)

type shape_info = {
  shape : string;
  hits : int;
  rebuilds : int;
  reason : string option;
  analysis : string;
}

(* The placed plan of each shape on one line, most recently used
   first. *)
let plan_shapes db =
  Shapes.fold (fun _ s acc -> s :: acc) db.shapes []
  |> List.sort (fun a b -> Int.compare b.used a.used)
  |> List.map (fun (s : shape) ->
         {
           shape =
             Plan.Logical.to_string s.built.placed
             |> String.split_on_char '\n'
             |> List.filter_map (fun l ->
                    match String.trim l with "" -> None | l -> Some l)
             |> String.concat " | ";
           hits = s.hits;
           rebuilds = s.rebuilds;
           reason = s.reason;
           analysis =
             (if not (Lazy.is_val s.built.scope) then "pending"
              else
                match Lazy.force s.built.scope with
                | Analysis.Independence.Shape -> "shape"
                | Analysis.Independence.Statement { audit_name; column } ->
                  Printf.sprintf "statement (%s.%s)" audit_name column);
         })

(* Apply the session verification policy to a prepared statement. *)
let enforce db p =
  match db.config.verify with
  | Off -> ()
  | (Warn | Strict) as mode -> (
    match (violations p, mode) with
    | [], _ -> ()
    | vs, Warn ->
      List.iter
        (fun v ->
          let msg =
            "plan-verify: " ^ Analysis.Plan_verify.string_of_violation v
          in
          alarm db msg;
          Printf.eprintf "warning: %s\n%!" msg)
        vs
    | (v :: _ as vs), _ ->
      Engine_core.Engine_error.raise_
        (Engine_core.Engine_error.Verify
           (Printf.sprintf "%s (%d violation(s) total)"
              (Analysis.Plan_verify.string_of_violation v)
              (List.length vs))))

(* The one engine dispatch; both engines share Exec_ctx, Expr_compile,
   metrics and the audit machinery. [row] and [compiled] are the same
   entry point (the result list, or only its length) of each engine. *)
let on_engine db ~row ~compiled p =
  match db.config.exec with
  | `Row -> row db.ctx p.phys
  | `Compiled -> compiled db.ctx p.phys

(* Run inside the current statement: never resets, so what it accesses
   joins the statement's one ACCESSED set. [run_plan] is an entry point
   outside any statement, so it starts a fresh query. *)
let run db p =
  on_engine db ~row:Exec.Executor.run_list
    ~compiled:Exec.Compiled_exec.run_list p

let fresh_query db p =
  enforce db p;
  Exec.Exec_ctx.reset_query_state db.ctx

let run_plan db p =
  fresh_query db p;
  run db p

let run_plan_count db p =
  fresh_query db p;
  on_engine db ~row:Exec.Executor.run_count
    ~compiled:Exec.Compiled_exec.run_count p

(* The offline auditor: [plan]'s provenance rewrite, narrowed to its ID
   columns, runs as a fresh uninstrumented read in the session's
   configuration; the accessed set is every non-NULL ID it yields that is
   in the view. *)
let lineage db ~audit plan =
  let e = audit_entry db audit in
  let plan = Plan.Logical.strip_audits plan in
  let n = Plan.Logical.arity plan in
  let rewritten = Audit_core.Provenance.rewrite ~audit:e.expr plan in
  let schema = Plan.Logical.schema rewritten in
  let ids =
    List.init (Schema.arity schema - n) (fun i ->
        (Plan.Scalar.Col (n + i), Schema.col schema (n + i)))
  in
  if ids = [] then []
  else
    let p =
      prepare_plan db ~audits:[]
        (Plan.Optimizer.prune
           (Plan.Logical.Project { cols = ids; child = rewritten }))
    in
    run_plan db p
    |> List.concat_map Array.to_list
    |> List.filter (Audit_core.Sensitive_view.contains e.view)
    |> List.sort_uniq Value.compare_total

(* The exact offline auditor, Definition 2.3: a candidate is accessed iff
   virtually deleting its partition changes [plan]'s result, compared as
   a multiset (ORDER BY ties and hash order may differ between runs). The
   scans apply [hide] to whole base rows before any projection, so the
   pruned plan a statement runs serves. The audit-stripped plan is
   prepared once; the baseline is a fresh query (the verify policy
   applies once), and each candidate re-runs the same prepared plan in
   the session's engine — unless no scan of the plan reads the sensitive
   table, when hiding a partition cannot change the result. *)
let exact_accessed db ~audit ?candidates plan =
  let e = audit_entry db audit in
  let p = prepare_plan db ~audits:[] (Plan.Logical.strip_audits plan) in
  let canonical rows = List.sort Tuple.compare rows in
  let baseline = canonical (run_plan db p) in
  let table = e.expr.Audit_core.Audit_expr.sensitive_table in
  let rec scans (n : Plan.Physical.t) =
    match n.op with
    | Plan.Physical.Seq_scan { table = t; _ } -> Schema.equal_names t table
    | _ -> List.exists scans (Plan.Physical.children n)
  in
  let key_idx = e.view.Audit_core.Sensitive_view.key_idx in
  let influences id =
    Fun.protect
      ~finally:(fun () -> db.ctx.hide <- None)
      (fun () ->
        db.ctx.hide <- Some (table, key_idx, id);
        Exec.Exec_ctx.reset_query_state db.ctx;
        let altered = run db p in
        (* A changed row count needs no sort. *)
        List.compare_lengths baseline altered <> 0
        || not (List.equal Tuple.equal baseline (canonical altered)))
  in
  if not (scans p.phys) then []
  else
    Option.value candidates ~default:(Audit_core.Sensitive_view.to_list e.view)
    |> List.filter influences
    |> List.sort Value.compare_total

let verify_query db ?heuristic ?audits q =
  violations (prepare db ?heuristic ?audits q)

let verify_sql db ?heuristic ?audits sql =
  verify_query db ?heuristic ?audits (Sql.Parser.query sql)

(** Per-probe verdict annotation for EXPLAIN, rendered against the
    pre-elision tree (elided probes are annotated, not hidden). *)
let elision_annot decisions (p : Plan.Physical.t) : string option =
  let est = Printf.sprintf "(est rows=%.0f)" p.Plan.Physical.est in
  match
    List.find_opt (fun d -> d.Analysis.Independence.probe == p) decisions
  with
  | None -> Some est
  | Some (d : Analysis.Independence.decision) ->
    let verdict =
      match (d.verdict, d.certificate) with
      | Analysis.Independence.Independent, Some c ->
        Printf.sprintf "probe elided: Independent (certificate #%d)"
          c.Analysis.Certificate.id
      | v, _ ->
        Printf.sprintf "probe kept: %s"
          (Analysis.Independence.string_of_verdict v)
    in
    Some (est ^ " " ^ verdict)

(* EXPLAIN's tree: the pre-elision plan, elided probes annotated with
   their certificate rather than silently missing. *)
let explain_tree p =
  Plan.Physical.to_string_annotated
    ~annot:(elision_annot (Lazy.force p.decisions))
    p.lowered

(* Certificate summaries of a statement's elision decisions. *)
let certificates_report decisions =
  match
    List.filter_map
      (fun (d : Analysis.Independence.decision) -> d.certificate)
      decisions
  with
  | [] -> ""
  | certs ->
    "elision certificates:\n"
    ^ String.concat ""
        (List.map
           (fun c -> "  " ^ Analysis.Certificate.describe c)
           certs)

(** Certificate summaries of the last prepared statement ([\verify]). *)
let elision_report db = certificates_report (last_elision db)

(* ------------------------------------------------------------------ *)
(* Static auditing baseline (Oracle FGA style, §VI)                   *)
(* ------------------------------------------------------------------ *)

type fga_verdict = May_access | No_access

let string_of_fga_verdict = function
  | May_access -> "MAY-ACCESS"
  | No_access -> "NO-ACCESS"

(* Hcn, not the session heuristic: a Leaf probe sits below the equi-join
   whose key transfer rules some reads out. *)
let fga_verdict db ~audit (q : Sql.Ast.query) : fga_verdict =
  let plan =
    plan_query db ~heuristic:Audit_core.Placement.Hcn ~audits:[ audit ]
      ~prune:false q
  in
  if
    List.for_all
      (fun (d : Analysis.Independence.decision) ->
        d.verdict = Analysis.Independence.Independent)
      (analyze db [ audit_entry db audit ] (physical db plan))
  then No_access
  else May_access

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

(* The relations a trigger action reads. *)
let trigger_relations = [ "accessed"; "new"; "old" ]

let find_table db table =
  match Catalog.find_opt db.catalog table with
  | Some t -> t
  | None -> err "unknown table %s" table

(* A read inside a statement: prepared, then held to the session's
   verification policy. *)
let prepare_read db ?heuristic ?audits q =
  let p = prepare db ?heuristic ?audits q in
  enforce db p;
  p

(* A DDL statement's result; it moves the catalog epoch, so every
   session's shapes are rebuilt. *)
let ddl db msg =
  incr db.epoch;
  Done msg

(* DDL refuses to drop [obj] while [dependents] name it: they would
   outlive it in the dump, which could not replay them, and a re-created
   [obj] of the same name would revive them. *)
let refuse_drop obj = function
  | [] -> ()
  | dependents ->
    Engine_core.Engine_error.raise_
      (Engine_core.Engine_error.Dependency { obj; dependents })

let trigger_names ts = List.map (fun tr -> "trigger " ^ tr.Audit_core.Trigger.name) ts

(* The audit expressions whose views read [table]: exactly those whose
   change hooks are on it. A view that outlived its table would keep its
   IDs and never see the rows of a re-created table — a false negative. *)
let audits_reading db table =
  match Catalog.find_opt db.catalog table with
  | None -> []
  | Some tb ->
    Hashtbl.fold
      (fun _ a acc ->
        if List.exists (fun (t, _) -> t == tb) a.view.Audit_core.Sensitive_view.hooks
        then ("audit expression " ^ a.expr.Audit_core.Audit_expr.name) :: acc
        else acc)
      db.audits []
    |> List.sort compare

let rec exec_statement db (stmt : Sql.Ast.statement) : result =
  match stmt with
  | Sql.Ast.S_select q ->
    let p = prepare_read db q in
    audited db ~deny:true (fun () ->
        Rows { schema = Plan.Logical.schema p.plan; rows = run db p })
  | Sql.Ast.S_create_table { table; columns } ->
    (* A user table named like a trigger relation would be shadowed
       inside trigger actions, and placement, [hide], the verifier and
       the independence analysis, which match scans by table name, would
       take the relation for it. *)
    if List.mem (norm table) trigger_relations then
      Engine_core.Engine_error.raise_ (Engine_core.Engine_error.Reserved table);
    if Catalog.mem db.catalog table then err "table %s already exists" table;
    let schema =
      Schema.of_list
        (List.map
           (fun (c : Sql.Ast.column_def) ->
             Schema.column c.Sql.Ast.col_name c.Sql.Ast.col_type)
           columns)
    in
    let key =
      List.find_index (fun (c : Sql.Ast.column_def) -> c.Sql.Ast.col_pk) columns
    in
    Catalog.add db.catalog
      (Table.create ?key ~storage:db.config.storage ~name:table schema);
    ddl db (Printf.sprintf "table %s created" table)
  | Sql.Ast.S_drop_table name ->
    refuse_drop ("table " ^ name)
      (trigger_names (Audit_core.Trigger.on_dml db.triggers ~table:name)
      @ audits_reading db name);
    Catalog.remove db.catalog name;
    ddl db (Printf.sprintf "table %s dropped" name)
  | Sql.Ast.S_insert { table; columns; source } -> exec_insert db table columns source
  | Sql.Ast.S_update { table; sets; where } -> exec_update db table sets where
  | Sql.Ast.S_delete { table; where } -> exec_delete db table where
  | Sql.Ast.S_create_audit { audit_name; definition; sensitive_table; partition_by }
    ->
    if Hashtbl.mem db.audits (norm audit_name) then
      err "audit expression %s already exists" audit_name;
    let expr =
      Audit_core.Audit_expr.create db.catalog ~name:audit_name ~definition
        ~sensitive_table ~partition_by
    in
    let view = Audit_core.Sensitive_view.create db.catalog expr in
    let info =
      {
        Analysis.Independence.name = expr.Audit_core.Audit_expr.name;
        sensitive_table = expr.Audit_core.Audit_expr.sensitive_table;
        partition_by = expr.Audit_core.Audit_expr.partition_by;
        definition = expr.Audit_core.Audit_expr.definition;
      }
    in
    Hashtbl.replace db.audits (norm audit_name) { expr; view; info };
    ddl db
      (Printf.sprintf "audit expression %s created (%d sensitive IDs)"
         audit_name
         (Audit_core.Sensitive_view.cardinality view))
  | Sql.Ast.S_drop_audit name ->
    let view = audit_view db name in
    refuse_drop ("audit expression " ^ name)
      (trigger_names (Audit_core.Trigger.on_access db.triggers ~audit_name:name));
    Audit_core.Sensitive_view.detach view;
    Hashtbl.remove db.audits (norm name);
    ddl db (Printf.sprintf "audit expression %s dropped" name)
  | Sql.Ast.S_create_trigger { trigger_name; event; timing; body } ->
    (match event with
    | Sql.Ast.On_access a ->
      if not (Hashtbl.mem db.audits (norm a)) then
        err "trigger %s references unknown audit expression %s" trigger_name a
    | Sql.Ast.On_dml (tbl, _) ->
      if not (Catalog.mem db.catalog tbl) then
        err "trigger %s references unknown table %s" trigger_name tbl;
      if timing = Sql.Ast.Before_return then
        err "trigger %s: BEFORE RETURN is only valid for ON ACCESS triggers"
          trigger_name);
    Audit_core.Trigger.add db.triggers
      { Audit_core.Trigger.name = trigger_name; event; timing; body };
    ddl db (Printf.sprintf "trigger %s created" trigger_name)
  | Sql.Ast.S_drop_trigger name ->
    Audit_core.Trigger.remove db.triggers name;
    ddl db (Printf.sprintf "trigger %s dropped" name)
  | Sql.Ast.S_if (cond, body) ->
    (* The condition is a FROM-less SELECT (so scalar subqueries work),
       audited like any other read. *)
    let p =
      prepare_read db
        {
          Sql.Ast.empty_query with
          Sql.Ast.select = [ Sql.Ast.Si_expr (cond, None) ];
        }
    in
    let v =
      audited db (fun () ->
          match run db p with
          | [ [| v |] ] -> v
          | _ -> err "IF condition did not evaluate to a single value")
    in
    if v = Value.Bool true then begin
      List.iter (fun s -> ignore (exec_statement db s)) body;
      Done "if: executed"
    end
    else Done "if: skipped"
  | Sql.Ast.S_create_index { index_name; table; column } ->
    let t = find_table db table in
    let col =
      match Schema.find_opt (Table.schema t) column with
      | Some c -> c
      | None -> err "unknown column %s on table %s" column table
    in
    (try Table.create_index t ~name:index_name ~col
     with Table.Index_exists n -> err "index %s already exists" n);
    ddl db (Printf.sprintf "index %s created on %s(%s)" index_name table column)
  | Sql.Ast.S_drop_index { index_name; table } ->
    (try Table.drop_index (find_table db table) index_name
     with Table.Unknown_index n -> err "unknown index %s" n);
    ddl db (Printf.sprintf "index %s dropped" index_name)
  | Sql.Ast.S_explain { verify = true; query; _ } ->
    (* EXPLAIN VERIFY: the plan (with per-probe verdicts when elision
       ran), the verifier's rule-by-rule report on what would execute,
       and the elision certificates. *)
    let p = prepare db query in
    Done
      (explain_tree p ^ "\n"
      ^ Analysis.Plan_verify.report (violations p)
      ^ certificates_report (Lazy.force p.decisions))
  | Sql.Ast.S_explain { analyze = false; query; _ } ->
    Done (explain_tree (prepare_read db query))
  | Sql.Ast.S_explain { analyze = true; query; _ } ->
    (* Execute with metrics collection on and render the tree with
       estimated-vs-actual row counts and timings. Like PostgreSQL's
       EXPLAIN ANALYZE, the statement fires the triggers of the query it
       ran: the tree is rendered and metrics collection restored first,
       and a BEFORE RETURN DENY withholds the rendering. *)
    let p = prepare_read db query in
    let m = db.ctx.Exec.Exec_ctx.metrics in
    let was = Exec.Metrics.enabled m in
    audited db ~deny:true (fun () ->
        Exec.Metrics.clear m;
        Exec.Metrics.set_enabled m true;
        Fun.protect
          ~finally:(fun () -> Exec.Metrics.set_enabled m was)
          (fun () ->
            ignore (run db p);
            db.last_stats <- Some (Exec.Metrics.report m);
            let elided =
              List.filter_map
                (fun (d : Analysis.Independence.decision) ->
                  Option.map
                    (fun c ->
                      Printf.sprintf
                        "probe elided: Independent (certificate #%d, %s)\n"
                        c.Analysis.Certificate.id d.audit_name)
                    d.certificate)
                (Lazy.force p.decisions)
            in
            Done (Exec.Explain.render db.ctx p.phys ^ String.concat "" elided)))
  | Sql.Ast.S_notify msg ->
    db.notifications <- msg :: db.notifications;
    (* NOTIFY is audit output (it typically fires from trigger bodies):
       mirror it into the durable log at any depth. *)
    log_append db
      (Audit_log.Wal.Notify
         {
           session = db.ctx.Exec.Exec_ctx.session_id;
           seq = db.ctx.Exec.Exec_ctx.now;
           msg;
         });
    Done (Printf.sprintf "notify: %s" msg)
  | Sql.Ast.S_deny msg ->
    if db.in_before_trigger then raise (Deny_signal msg)
    else err "DENY is only valid inside a BEFORE RETURN trigger action"

(* Run [f] — a prepared read that builds its output — as part of the
   current statement. At depth 0 the read's own ACCESSED IDs then fire
   the SELECT triggers: BEFORE RETURN (when [deny]: a SELECT's result can
   be withheld) on every ID the read accessed, AFTER on those no earlier
   part of the statement passed to them; the IDs then join the
   statement's one ACCESSED set. §II: the AFTER actions execute even if
   the read aborts — guard cancellations and injected faults included —
   on the partial set, which [exec_logged] flushes to the durable log.
   Inside a trigger action nothing fires (the depth guard), but the read
   is still instrumented. *)
and audited : 'a. t -> ?deny:bool -> (unit -> 'a) -> 'a =
 fun db ?(deny = false) f ->
  if db.trigger_depth > 0 then f ()
  else begin
    let restore = Exec.Exec_ctx.begin_read db.ctx in
    let finish () =
      let read = logged db in
      restore ();
      db.last_accessed <- logged db;
      if Exec.Metrics.enabled db.ctx.Exec.Exec_ctx.metrics then
        db.last_stats <- Some (Exec.Metrics.report db.ctx.Exec.Exec_ctx.metrics);
      read
    in
    match f () with
    | v ->
      let read = finish () in
      (* BEFORE RETURN triggers run first and may DENY. The AFTER triggers
         run regardless: the access happened and must be audited even when
         the result is withheld. *)
      let denial =
        if deny then fire_select_triggers db ~timing:Sql.Ast.Before_return read
        else None
      in
      ignore (fire_select_triggers db ~timing:Sql.Ast.After read);
      Option.iter (fun msg -> raise (Access_denied msg)) denial;
      v
    | exception e ->
      ignore (fire_select_triggers db ~timing:Sql.Ast.After (finish ()));
      raise e
  end

(** Fire the SELECT triggers of [timing] on [read], per audit expression
    the IDs accessed; AFTER skips the IDs the statement already passed to
    them. Returns the first DENY message, if any. *)
and fire_select_triggers db ~timing read : string option =
  let fired = ref [] in
  Hashtbl.iter
    (fun name entry ->
      let key = entry.expr.Audit_core.Audit_expr.name in
      let ids = Option.value (List.assoc_opt key read) ~default:[] in
      let unfired id =
        (not (Hashtbl.mem db.fired (key, id)))
        && (Hashtbl.replace db.fired (key, id) (); true)
      in
      let ids = if timing = Sql.Ast.After then List.filter unfired ids else ids in
      if ids <> [] then
        let ts =
          Audit_core.Trigger.on_access ~timing db.triggers ~audit_name:name
        in
        if ts <> [] then fired := (entry, ids, ts) :: !fired)
    db.audits;
  let denial = ref None in
  List.iter
    (fun (entry, ids, ts) ->
      let expr = entry.expr in
      let table =
        Catalog.find db.catalog expr.Audit_core.Audit_expr.sensitive_table
      in
      let key_idx =
        Schema.find (Table.schema table) expr.Audit_core.Audit_expr.partition_by
      in
      let key_col = Schema.col (Table.schema table) key_idx in
      let schema =
        Schema.of_list
          [ Schema.column expr.Audit_core.Audit_expr.partition_by key_col.Schema.ty ]
      in
      let rows = List.map (fun id -> [| id |]) ids in
      List.iter
        (fun tr ->
          log_append db
            (Audit_log.Wal.Trigger_fired
               {
                 session = db.ctx.Exec.Exec_ctx.session_id;
                 seq = db.ctx.Exec.Exec_ctx.now;
                 trigger = tr.Audit_core.Trigger.name;
                 audit = expr.Audit_core.Audit_expr.name;
                 timing =
                   (match timing with
                   | Sql.Ast.Before_return -> "BEFORE RETURN"
                   | _ -> "AFTER");
               });
          match run_trigger db tr ~accessed:(schema, rows) with
          | None -> ()
          | Some msg -> if !denial = None then denial := Some msg)
        ts)
    !fired;
  !denial

(** Execute one trigger action with ACCESSED bound. Returns the DENY
    message when a BEFORE RETURN action denied the query. *)
and run_trigger db (tr : Audit_core.Trigger.t) ~accessed:(schema, rows) :
    string option =
  let saved_before = db.in_before_trigger in
  db.in_before_trigger <- tr.Audit_core.Trigger.timing = Sql.Ast.Before_return;
  Fun.protect
    ~finally:(fun () -> db.in_before_trigger <- saved_before)
    (fun () ->
      match
        run_actions db ("at trigger " ^ tr.Audit_core.Trigger.name)
          [ ("accessed", schema, rows) ] [ tr ]
      with
      | () -> None
      | exception Deny_signal msg -> Some msg)

and run_dml_triggers db ~table ~event ~new_rows ~old_rows ~row_schema =
  match Audit_core.Trigger.on_dml db.triggers ~table ~event with
  | [] -> ()
  | ts ->
    run_actions db ("on table " ^ table)
      [ ("new", row_schema, new_rows); ("old", row_schema, old_rows) ]
      ts

(* Run the bodies of [ts] one cascade level deeper, with [relations]
   bound in the session's scope for their extent. A cascaded action
   shadows the outer [new]/[old]/[accessed] with its own, and the outer
   body resumes with its own after the inner one unwinds. *)
and run_actions db where relations ts =
  if db.trigger_depth >= max_trigger_depth then
    err "trigger cascade depth limit (%d) exceeded %s" max_trigger_depth where;
  db.trigger_depth <- db.trigger_depth + 1;
  Fun.protect
    ~finally:(fun () -> db.trigger_depth <- db.trigger_depth - 1)
    (List.fold_right
       (fun (name, schema, rows) f () ->
         let t = Table.create ~storage:db.config.storage ~name schema in
         List.iter (Table.insert t) rows;
         Catalog.bind db.catalog t f)
       relations
       (fun () ->
         List.iter
           (fun (tr : Audit_core.Trigger.t) ->
             Engine_core.Faultkit.on_trigger db.ctx.Exec.Exec_ctx.faults
               ~name:tr.name;
             List.iter (fun s -> ignore (exec_statement db s)) tr.body)
           ts))

(* --------------------------------------------------------------- *)
(* DML                                                              *)
(* --------------------------------------------------------------- *)

and exec_insert db table columns source : result =
  let t = find_table db table in
  let schema = Table.schema t in
  let arity = Schema.arity schema in
  let position_of =
    match columns with
    | None -> fun i -> i
    | Some names ->
      let idxs =
        List.map
          (fun n ->
            match Schema.find_opt schema n with
            | Some i -> i
            | None -> err "unknown column %s in INSERT INTO %s" n table)
          names
      in
      let arr = Array.of_list idxs in
      fun i -> arr.(i)
  in
  let expected =
    match columns with None -> arity | Some names -> List.length names
  in
  let make_row values =
    if List.length values <> expected then
      err "INSERT INTO %s expects %d values, got %d" table expected
        (List.length values);
    let row = Array.make arity Value.Null in
    List.iteri (fun i v -> row.(position_of i) <- v) values;
    row
  in
  let rows =
    match source with
    | Sql.Ast.Ins_values rows ->
      List.map
        (fun exprs ->
          make_row
            (List.map
               (fun e ->
                 let s = Plan.Binder.scalar db.catalog [||] e in
                 Exec.Eval.eval db.ctx [||] s)
               exprs))
        rows
    | Sql.Ast.Ins_query q ->
      (* The SELECT side of INSERT ... SELECT reads data like any query: it
         is instrumented and fires SELECT triggers (copying a sensitive row
         into a private table must not evade auditing). A trigger action's
         own INSERT ... SELECT FROM accessed is instrumented too; only its
         firing is depth-guarded ([audited]). *)
      let p = prepare_read db q in
      List.map
        (fun r -> make_row (Array.to_list r))
        (audited db (fun () -> run db p))
  in
  List.iter (Table.insert t) rows;
  (* [new] coerces the rows as [t] did: it is built with [t]'s schema, and
     only when an INSERT trigger fires. *)
  run_dml_triggers db ~table ~event:Sql.Ast.Ev_insert ~new_rows:rows
    ~old_rows:[] ~row_schema:schema;
  Affected (List.length rows)

(* §II-B: UPDATE and DELETE read the rows they modify. That read is an
   ordinary one, [SELECT * FROM table [WHERE ...]] through the read
   pipeline: hcn placement (exact on a select-only read, Theorem 3.7) of
   every audit expression over [table] as well as the watched ones, so
   the accesses are taken against the pre-statement view and fire AFTER
   triggers as any read's do, before a row changes. The mutation then
   touches exactly the rows the read returned ([Table.update_rows]/
   [delete_rows]): through the primary-key index on a keyed table, by a
   whole-row match over every slot on a keyless one (rows equal on every
   column satisfy the same WHERE). *)
and dml_target db t where =
  let table = Table.name t in
  let watched = selected_audits db () in
  let audits =
    List.filter
      (fun name ->
        let e = audit_entry db name in
        List.memq e watched
        || Schema.equal_names e.expr.Audit_core.Audit_expr.sensitive_table table)
      (audit_names db)
  in
  let p =
    prepare_read db ~heuristic:Audit_core.Placement.Hcn ~audits
      {
        Sql.Ast.empty_query with
        Sql.Ast.select = [ Sql.Ast.Si_star ];
        from = [ Sql.Ast.Tr_table (table, None) ];
        where;
      }
  in
  audited db (fun () -> run db p)

and exec_update db table sets where : result =
  let t = find_table db table in
  let schema = Table.schema t in
  let set_bound =
    List.map
      (fun (c, e) ->
        match Schema.find_opt schema c with
        | Some i -> (i, Plan.Binder.scalar db.catalog schema e)
        | None -> err "unknown column %s in UPDATE %s" c table)
      sets
  in
  let rows = dml_target db t where in
  let changes = ref [] in
  let n =
    Table.update_rows t rows (fun row ->
        let row' = Array.copy row in
        List.iter
          (fun (i, s) -> row'.(i) <- Exec.Eval.eval db.ctx row s)
          set_bound;
        changes := (row, row') :: !changes;
        row')
  in
  run_dml_triggers db ~table ~event:Sql.Ast.Ev_update
    ~new_rows:(List.rev_map snd !changes)
    ~old_rows:(List.rev_map fst !changes)
    ~row_schema:schema;
  Affected n

and exec_delete db table where : result =
  let t = find_table db table in
  let deleted = Table.delete_rows t (dml_target db t where) in
  run_dml_triggers db ~table ~event:Sql.Ast.Ev_delete ~new_rows:[]
    ~old_rows:deleted ~row_schema:(Table.schema t);
  Affected (List.length deleted)

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

(* Classify every known engine exception into the typed error module. The
   legacy classes are re-surfaced as [Db_error (Engine_error.to_string e)]
   for compatibility; the robustness classes — [Cancelled], [Log_io],
   [Fault] — propagate as [Engine_error.Error] so callers can match on
   them without string inspection. *)
let wrap_errors f =
  let module E = Engine_core.Engine_error in
  let fail e = raise (Db_error (E.to_string e)) in
  try f () with
  | Sql.Lexer.Lex_error (m, off) ->
    fail (E.Parse (Printf.sprintf "lex, at offset %d: %s" off m))
  | Sql.Parser.Parse_error (m, off) ->
    fail (E.Parse (Printf.sprintf "at offset %d: %s" off m))
  | Plan.Binder.Bind_error m -> fail (E.Bind m)
  | Schema.Unknown_column c -> fail (E.Bind ("unknown column " ^ c))
  | Schema.Ambiguous_column c -> fail (E.Bind ("ambiguous column " ^ c))
  | Catalog.Unknown_table t -> fail (E.Bind ("unknown table " ^ t))
  | Catalog.Table_exists t -> fail (E.Exec ("table " ^ t ^ " already exists"))
  | Table.Duplicate_key m | Table.Schema_mismatch m -> fail (E.Exec m)
  | Value.Type_error m -> fail (E.Exec ("type error: " ^ m))
  | Exec.Eval.Eval_error m -> fail (E.Exec ("evaluation error: " ^ m))
  | Exec.Executor.Exec_error m -> fail (E.Exec m)
  | Audit_core.Audit_expr.Invalid_audit m -> fail (E.Audit m)
  | Audit_core.Placement.Placement_error m ->
    fail (E.Audit ("placement error: " ^ m))
  | Audit_core.Trigger.Trigger_exists n ->
    fail (E.Audit ("trigger " ^ n ^ " already exists"))
  | Audit_core.Trigger.Unknown_trigger n ->
    fail (E.Audit ("unknown trigger " ^ n))
  | Engine_core.Faultkit.Fault_injected m -> E.raise_ (E.Fault m)

(** Repair audit session state that a catastrophically failed statement
    could have left behind. [Fun.protect] in the trigger runners makes a
    leak nearly impossible, but the auditing guarantee must not rest on
    "nearly": one failed query can never poison the next. *)
let repair_session db =
  if db.trigger_depth <> 0 || db.in_before_trigger then begin
    alarm db
      (Printf.sprintf
         "session invariants repaired (trigger_depth=%d%s); clearing leaked \
          trigger relations"
         db.trigger_depth
         (if db.in_before_trigger then ", in_before_trigger" else ""));
    db.trigger_depth <- 0;
    db.in_before_trigger <- false;
    Catalog.clear_scope db.catalog
  end

(* Run one top-level statement with the failure-atomic audit pipeline:
   fresh per-query state on entry (with invariant repair) — the one reset
   on the statement path, so the statement and every statement its
   triggers run share one ACCESSED set, and the timeout deadline covers
   planning too — and on exit, normal or exceptional, the statement's
   ACCESSED sets flushed to the durable log *before* results are
   released. Under the fail-closed policy a failed log write withholds
   the results (raises the typed [Log_io] error); on an already-failing
   statement the log failure is demoted to an alarm (no rows were
   released, the original error wins). *)
let exec_logged db stmt_sql (stmt : Sql.Ast.statement) : result =
  repair_session db;
  db.ctx.Exec.Exec_ctx.now <- db.ctx.Exec.Exec_ctx.now + 1;
  db.ctx.Exec.Exec_ctx.sql <- stmt_sql;
  Exec.Exec_ctx.reset_query_state db.ctx;
  Hashtbl.clear db.fired;
  match exec_statement db stmt with
  | r ->
    log_statement_accessed db ~complete:true;
    r
  | exception e ->
    (* DENY means the query ran to completion and was audited — only its
       result is withheld — so its ACCESSED record is complete. *)
    let complete = match e with Access_denied _ -> true | _ -> false in
    (try log_statement_accessed db ~complete
     with
     | Engine_core.Engine_error.Error (Engine_core.Engine_error.Log_io m) ->
       db.alarms <-
         Printf.sprintf
           "audit record lost while handling a failed statement: %s" m
         :: db.alarms);
    (* Repair before the exception escapes, not just on the next entry:
       [exec] routes statements around this wrapper (straight to
       [exec_statement]) whenever [trigger_depth <> 0], so a depth leaked
       here would make every later statement bypass the audit pipeline —
       and nothing downstream would ever reset it. *)
    repair_session db;
    raise e

let exec_top db sql stmt =
  if db.trigger_depth = 0 then exec_logged db sql stmt else exec_statement db stmt

(** Execute one SQL statement. *)
let exec db sql : result =
  wrap_errors (fun () -> exec_top db (String.trim sql) (Sql.Parser.statement sql))

(** Execute a ';'-separated script; returns the results in order. *)
let exec_script db sql : result list =
  wrap_errors (fun () ->
      List.map
        (fun stmt -> exec_top db (Sql.Ast.statement_to_string stmt) stmt)
        (Sql.Parser.script sql))

(** Run a SELECT and return its rows (convenience). *)
let query db sql : Tuple.t list =
  match exec db sql with
  | Rows { rows; _ } -> rows
  | Affected _ | Done _ -> err "expected a SELECT"

(** Run a SELECT expected to return a single value. *)
let query_value db sql : Value.t =
  match query db sql with
  | [ row ] when Array.length row >= 1 -> row.(0)
  | rows -> err "expected a single value, got %d rows" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Dump / restore                                                      *)
(* ------------------------------------------------------------------ *)

(** SQL dump of the whole database — schema, data, audit expressions and
    triggers — replayable with {!exec_script}. *)
let dump db : string =
  let b = Buffer.create 4096 in
  let stmt s = Buffer.add_string b (s ^ ";\n") in
  let tables =
    Catalog.names db.catalog
    |> List.filter_map (fun n -> Catalog.find_opt db.catalog n)
  in
  List.iter
    (fun t ->
      let columns =
        List.mapi
          (fun i (c : Schema.column) ->
            {
              Sql.Ast.col_name = c.Schema.name;
              col_type = c.Schema.ty;
              col_pk = Table.key t = Some i;
            })
          (Schema.columns (Table.schema t))
      in
      stmt
        (Sql.Ast.statement_to_string
           (Sql.Ast.S_create_table { table = Table.name t; columns })))
    tables;
  List.iter
    (fun t ->
      List.iter
        (fun (idx_name, col) ->
          stmt
            (Sql.Ast.statement_to_string
               (Sql.Ast.S_create_index
                  {
                    index_name = idx_name;
                    table = Table.name t;
                    column = (Schema.col (Table.schema t) col).Schema.name;
                  })))
        (Table.index_names t))
    tables;
  List.iter
    (fun t ->
      let rows = Table.to_list t in
      let rec batches = function
        | [] -> ()
        | rows ->
          let rec take n acc = function
            | [] -> (List.rev acc, [])
            | rest when n = 0 -> (List.rev acc, rest)
            | r :: rest -> take (n - 1) (r :: acc) rest
          in
          let batch, rest = take 100 [] rows in
          let values =
            List.map
              (fun row ->
                Printf.sprintf "(%s)"
                  (String.concat ", "
                     (List.map Value.to_sql_literal (Array.to_list row))))
              batch
          in
          stmt
            (Printf.sprintf "INSERT INTO %s VALUES %s" (Table.name t)
               (String.concat ", " values));
          batches rest
      in
      batches rows)
    tables;
  List.iter
    (fun name ->
      let e = audit_expr db name in
      stmt
        (Sql.Ast.statement_to_string
           (Sql.Ast.S_create_audit
              {
                audit_name = e.Audit_core.Audit_expr.name;
                definition = e.Audit_core.Audit_expr.definition;
                sensitive_table = e.Audit_core.Audit_expr.sensitive_table;
                partition_by = e.Audit_core.Audit_expr.partition_by;
              })))
    (audit_names db);
  List.iter
    (fun (tr : Audit_core.Trigger.t) ->
      stmt
        (Sql.Ast.statement_to_string
           (Sql.Ast.S_create_trigger
              {
                trigger_name = tr.Audit_core.Trigger.name;
                event = tr.Audit_core.Trigger.event;
                timing = tr.Audit_core.Trigger.timing;
                body = tr.Audit_core.Trigger.body;
              })))
    (Audit_core.Trigger.all db.triggers);
  Buffer.contents b

(** Rebuild a fresh database from a {!dump}. *)
let restore ?config sql : t =
  let db = create ?config () in
  ignore (exec_script db sql);
  db
