(** The database facade: a single-session engine with SELECT triggers.

    [exec] runs one statement through the full pipeline: parse → bind →
    logical optimize → audit-operator placement (for every audit expression
    watched by a SELECT trigger) → column pruning → lower → elide → verify
    → execute → fire triggers. Every statement that reads rows (SELECT,
    INSERT ... SELECT, the rows an UPDATE or DELETE modifies, an IF
    condition, each EXPLAIN form) takes the same {!prepare} /
    {!violations} / engine stages, and a statement has one ACCESSED set.
    See the implementation header for the trigger semantics
    (§II): AFTER and BEFORE RETURN timings, cascades with a depth limit,
    the [ACCESSED]/[new]/[old] pseudo-relations, and the logical clock
    behind [now()]. *)

open Storage

exception Db_error of string

exception Access_denied of string
(** a BEFORE RETURN trigger executed [DENY]: the query ran and was audited,
    but its result is withheld *)

type t

(** A fresh single-session database in configuration [config] (default
    {!Config.default}: row engine, heap tables, no elision, no plan
    verification). Nothing is read from the environment. *)
val create : ?config:Config.t -> unit -> t

(** A further session over the same engine: the catalog, audit
    expressions and triggers are shared by reference (DDL from any
    session is visible to all); the execution context (user, logical
    clock, budgets, fault kit), trigger depth, notifications, alarms and
    pending evidence are fresh and private. Statement execution is not
    internally synchronized — concurrent sessions must serialize [exec]
    externally (the server layer holds one statement lock); evidence
    commit can then overlap across sessions via the deferred sink and the
    WAL group-commit writer. The session starts with a copy of the
    parent's {!config}; later changes on either side stay private. *)
val create_session : ?session_id:int -> t -> t

(** {1 Session} *)

val catalog : t -> Catalog.t
val context : t -> Exec.Exec_ctx.t

(** This session's identity (0 for the single-session engine), stamped
    onto every WAL evidence record it produces. *)
val session_id : t -> int

val set_user : t -> string -> unit
val user : t -> string

(** Placement heuristic used to instrument queries (default {!Audit_core.Placement.Hcn}). *)
val set_heuristic : t -> Audit_core.Placement.heuristic -> unit

(** Master switch for SELECT-trigger instrumentation (default on). *)
val set_instrumentation : t -> bool -> unit

(** {2 Configuration}

    The session's {!Config.t}. Each setter below updates one axis of it. *)

val config : t -> Config.t

(** Which engine runs SELECT-shaped statements ({!Config.exec}); the
    differential harness holds both to identical semantics. *)
val set_exec_mode : t -> Config.exec -> unit

val exec_mode : t -> Config.exec

(** Physical representation used for tables created from now on (CREATE
    TABLE and temp tables): heap tuples or typed columnar vectors
    ({!Storage.Table.storage}). Already-created tables keep their
    representation. *)
val set_storage_mode : t -> Storage.Table.storage -> unit

val storage_mode : t -> Storage.Table.storage

(** Plan-invariant verification policy ({!Analysis.Plan_verify}) applied
    to every planned statement: [Off] skips the check, [Warn] records an
    alarm (and a stderr warning) per violation, [Strict] refuses the
    plan with {!Engine_core.Engine_error.Verify}. *)
type verify_mode = Config.verify_mode = Off | Warn | Strict

val set_verify_plans : t -> verify_mode -> unit
val verify_plans_mode : t -> verify_mode

(** Certified static probe elision ({!Analysis.Independence} /
    {!Analysis.Elide}): [Elide_off] executes plans exactly as placed;
    [Elide_certified] runs the trigger–query independence analysis on
    every physical plan and strips audit probes whose certificate
    replays under {!Analysis.Certificate.validate}. Elided plans still
    satisfy [Strict] verification: the certificates are handed to
    {!Analysis.Plan_verify.verify}, whose coverage rule re-validates
    them. *)
type elision_mode = Config.elision_mode = Elide_off | Elide_certified

val set_elision_mode : t -> elision_mode -> unit
val elision_mode : t -> elision_mode

(** Per-probe decisions of the most recent {!prepare}; empty when it ran
    no independence analysis (elision off, or no instrumenting audit
    expressions). Forces the analysis a statement of a shape no literal
    can certify skipped. *)
val last_elision : t -> Analysis.Independence.decision list

(** Human-readable certificate dump for {!last_elision} (the shell's
    [\verify]); empty string when nothing was elided. *)
val elision_report : t -> string

(** NOTIFY output, oldest first. *)
val notifications : t -> string list

val clear_notifications : t -> unit

(** Per-audit ACCESSED IDs of the last top-level statement that read
    rows: SELECT, INSERT ... SELECT, IF or EXPLAIN ANALYZE (diagnostics). *)
val last_accessed : t -> (string * Value.t list) list

(** Collect per-operator execution metrics for every subsequent query
    (EXPLAIN ANALYZE enables this transiently on its own). Off by default:
    the instrumentation costs two clock reads per row per operator. *)
val set_collect_metrics : t -> bool -> unit

(** Per-operator stats of the last metrics-collected top-level read (as
    for {!last_accessed}), in plan pre-order. [None] until one ran. *)
val last_query_stats : t -> Exec.Metrics.op_report list option

val trigger_manager : t -> Audit_core.Trigger.manager

(** {1 Robustness: audit log, query guards, fault injection}

    The failure-atomic audit pipeline: when an audit log is attached,
    every top-level statement's ACCESSED sets (including trigger-cascade
    accesses) and trigger firings are appended to the durable log and
    fsynced {e before} the statement's results are released. Under the
    default fail-closed policy a failed log write withholds the results
    (raising [Engine_core.Engine_error.Error (Log_io _)], analogous to
    {!Access_denied}); under fail-open the results flow and an alarm is
    recorded. *)

(** Attach (open or create) the durable audit log at the given path.
    Recovery keeps every intact record and truncates a torn tail
    (alarming when it does). Default policy: fail-closed. *)
val attach_audit_log :
  t -> ?policy:Audit_log.Wal.policy -> string -> Audit_log.Wal.recovery

val detach_audit_log : t -> unit
val audit_log : t -> Audit_log.Wal.t option

(** {2 Deferred evidence (served sessions)}

    In deferred mode the session writes no audit log itself: each
    statement's evidence records (ACCESSED sets, trigger firings, NOTIFY
    mirrors, alarm notes) accumulate in a per-session buffer instead. The
    caller — the server's connection loop — must {!take_pending_evidence}
    after every statement (normal or failed) and make the records durable
    (e.g. {!Audit_log.Wal.Group.submit}) {e before} releasing the
    statement's results, preserving the evidence-before-results
    invariant while letting concurrent sessions share one fsync. *)

val set_deferred_evidence : t -> bool -> unit
val deferred_evidence : t -> bool

(** The accumulated evidence, oldest first; clears the buffer. *)
val take_pending_evidence : t -> Audit_log.Wal.record list

(** Robustness alarms (fail-open log losses, invariant repairs, recovery
    truncations), oldest first. *)
val alarms : t -> string list

val clear_alarms : t -> unit

(** Per-query wall-clock budget in seconds ([None] = unlimited). A tripped
    guard raises [Engine_error.Error (Cancelled _)] — after flushing the
    partial ACCESSED set to the audit log. *)
val set_timeout : t -> float option -> unit

(** Per-query budget on base-table rows scanned. *)
val set_row_budget : t -> int option -> unit

(** Per-query budget on tuples materialized by blocking operators. *)
val set_mem_budget : t -> int option -> unit

(** The session's fault-injection kit (tests, the shell's [\fault]). *)
val faults : t -> Engine_core.Faultkit.t

(** Current trigger cascade depth (0 between statements — exposed so tests
    can assert the invariant survives faults inside trigger bodies). *)
val trigger_depth : t -> int

(** {1 Audit expressions} *)

val audit_view : t -> string -> Audit_core.Sensitive_view.t
val audit_expr : t -> string -> Audit_core.Audit_expr.t
val audit_names : t -> string list

(** {1 Results} *)

type result =
  | Rows of { schema : Schema.t; rows : Tuple.t list }
  | Affected of int
  | Done of string

val result_to_string : result -> string

(** {1 Statement execution} *)

(** Execute one SQL statement. Raises {!Db_error} (with parse/bind/execute
    context) or {!Access_denied}; a DROP refused because other objects
    name its target raises [Engine_core.Engine_error.Error (Dependency _)]. *)
val exec : t -> string -> result

(** Execute a ';'-separated script, returning results in order. *)
val exec_script : t -> string -> result list

(** Run a SELECT, returning its rows. *)
val query : t -> string -> Tuple.t list

(** Run a SELECT expected to return exactly one value. *)
val query_value : t -> string -> Value.t

(** {1 Lower-level planning API (benchmarks, tests)} *)

(** Compile a SELECT to a physical-ready plan. [audits] selects the
    instrumenting audit expressions (default: those watched by triggers,
    if instrumentation is on); [heuristic] overrides the session default;
    [prune] controls column pruning (on by default). *)
val plan_query :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  ?prune:bool ->
  Sql.Ast.query ->
  Plan.Logical.t

val plan_sql :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  ?prune:bool ->
  string ->
  Plan.Logical.t

(** Lower a logical plan to the physical tree the executor consumes: join
    strategies, equi-keys and per-node cardinality estimates are decided
    against the live catalog. *)
val physical : t -> Plan.Logical.t -> Plan.Physical.t

val physical_sql :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  ?prune:bool ->
  string ->
  Plan.Physical.t

(** {2 The read pipeline}

    The stages every read goes through, statement or harness run. *)

(** A read ready to run: its instrumented logical tree, the lowered
    physical plan ([lowered], what EXPLAIN renders) and the plan that
    executes ([phys]: [lowered] minus the probes certified elision
    stripped, whose [certificates] the verifier re-validates). [decisions]
    are the per-probe verdicts of certified elision ([[]] when it did not
    run); for a statement of a shape no literal can certify they are
    analysed only when forced, and certify nothing. [verdict] is the
    verifier's verdict on the statement's shape
    ({!prepare}), which {!violations} reuses while it is clean and no
    probe was elided. *)
type prepared = private {
  plan : Plan.Logical.t;
  lowered : Plan.Physical.t;
  phys : Plan.Physical.t;
  certificates : Analysis.Certificate.t list;
  decisions : Analysis.Independence.decision list Lazy.t;
  heuristic : Audit_core.Placement.heuristic;
  specs : Analysis.Plan_verify.audit_spec list;
  verdict : Analysis.Plan_verify.violation list Lazy.t option;
}

(** Lower a planned read, elide its probes under the session's elision
    mode (recording {!last_elision}), and install the sensitive-ID sets
    it probes. [audits] and [heuristic] must be those the plan was placed
    with: elision and the verifier take them from here. *)
val prepare_plan :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  Plan.Logical.t ->
  prepared

(** {!plan_query}, then {!prepare_plan}, with the stages that read no
    literal done once per statement shape. Binding and the logical
    optimizer run on every call; the optimized plan's literals (all but
    TRUE, FALSE and NULL) are then lifted into slots, and the session
    keeps, per shape and per [heuristic]/[audits]/[prune] arguments, the
    placed, pruned and lowered plans with slots and the verifier's
    verdict on them. A call fills those plans with its own literals and
    runs the independence analysis and elision on the result, so it
    returns what {!prepare_plan} of {!plan_query} returns. On a shape's
    first hit, {!Analysis.Independence.shape_scope} classifies its
    lowered plan; from then on, when no literal can certify a probe of
    the shape, its statements skip the analysis and elision. A shape is
    rebuilt when the session's heuristic, elision, verification or
    instrumentation setting, the audit expressions or triggers, or a
    scanned table's identity, row count or index set changed since it
    was built. The session keeps a bounded number of shapes, dropping
    the least recently used. A read of a trigger relation ([new], [old],
    [accessed]) bypasses the shapes: each firing binds a fresh table. *)
val prepare :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  ?prune:bool ->
  Sql.Ast.query ->
  prepared

val prepare_sql :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  ?prune:bool ->
  string ->
  prepared

(** The statement shapes {!prepare} keeps for this session, most
    recently used first: the placed plan on one line, with [$1…$n] for
    the literals; the executions served without building it; how many
    times it was rebuilt, and why the last time ("audit/trigger epoch",
    "session setting", "table replaced", "row count", "index set"); and
    where its independence verdicts come from: "shape" (no literal can
    certify a probe, so no statement is analysed), "statement
    (<audit>.<column>)" (a literal may certify that audit's probe on
    that column, so each statement is), or "pending" (built or rebuilt,
    not yet hit). *)
type shape_info = {
  shape : string;
  hits : int;
  rebuilds : int;
  reason : string option;
  analysis : string;
}

val plan_shapes : t -> shape_info list

(** The plan-invariant verifier's full rule catalog over a prepared read:
    its logical tree, and the physical plan that executes with the
    elision certificates attached. The commute relation checked follows
    the heuristic (hcn for [Leaf]/[Hcn], highest-node for [Highest]). *)
val violations : prepared -> Analysis.Plan_verify.violation list

(** Execute a prepared read as a fresh query, outside any statement: the
    session's verification policy applies, per-query state (ACCESSED,
    counters, guards, metrics) is reset, and no trigger fires. *)
val run_plan : t -> prepared -> Tuple.t list

(** {!run_plan}, returning only the row count (the engines skip building
    the result list). *)
val run_plan_count : t -> prepared -> int

(** The offline auditor's accessed set for [audit] on a planned read:
    {!Audit_core.Provenance.rewrite} of the audit-stripped plan, run by
    {!run_plan} with no probes in the session's configuration (so
    [Strict] verification checks the rewritten plan too). Returns the
    distinct non-NULL IDs it yields that the view contains, sorted. *)
val lineage : t -> audit:string -> Plan.Logical.t -> Value.t list

(** The exact offline auditor for [audit] on a planned read (Definition
    2.3): the [candidates] (default: the view's IDs) whose partition,
    virtually deleted, changes the result as a multiset; sorted. The
    audit-stripped plan is prepared once and run by {!run_plan}, then
    once per candidate, in the session's configuration (a plan that never
    scans the audit's sensitive table runs once and yields none). The
    ground truth for tests and Figure 1's verifier, whose candidates are
    the online auditIDs (sound: the heuristics have no false negatives). *)
val exact_accessed :
  t -> audit:string -> ?candidates:Value.t list -> Plan.Logical.t ->
  Value.t list

(** [violations] of a freshly prepared query, without executing
    anything. *)
val verify_query :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  Sql.Ast.query ->
  Analysis.Plan_verify.violation list

val verify_sql :
  t ->
  ?heuristic:Audit_core.Placement.heuristic ->
  ?audits:string list ->
  string ->
  Analysis.Plan_verify.violation list

(** {1 Static auditing baseline (Oracle FGA style, §VI / Example 6.1)} *)

type fga_verdict = May_access | No_access

val string_of_fga_verdict : fga_verdict -> string

(** Instance-independent verdict: can [q] read a row of [audit]'s
    sensitive rows? [q] is planned with that one audit expression at
    [Hcn] placement, without column pruning, and lowered; the verdict is
    [No_access] iff the independence analysis classifies every probe
    [Independent]. A query that never reads the sensitive table has no
    probes and gets [No_access]. Nothing is executed. *)
val fga_verdict : t -> audit:string -> Sql.Ast.query -> fga_verdict

(** Install every audit expression's sensitive-ID table into the execution
    context ({!prepare} does; a caller that runs a plan on an engine
    directly must). *)
val install_audit_sets : t -> unit

(** {1 Dump / restore} *)

(** SQL dump of the whole database — schema, data, audit expressions and
    triggers — replayable with {!exec_script} (or {!restore}). *)
val dump : t -> string

(** Build a fresh database, in configuration [config], from a {!dump}. *)
val restore : ?config:Config.t -> string -> t
