(** Volcano-style execution of physical plans.

    The executor consumes {!Plan.Physical.t} only — join strategies,
    equi-keys and TopK fusion were all decided by
    {!Plan.Physical.plan_of_logical} — and compiles each plan's scalar
    expressions once via {!Expr_compile}. [compile] returns a cursor
    {e factory}; invoking it opens a fresh execution. The physical audit
    operator (§IV-A2) calls {!Exec_ctx.probe} once per row: a single hash
    probe into the audit expression's sensitive-ID table that marks and
    logs hits — it never filters, so instrumented plans return exactly
    the plain plan's rows. *)

open Storage

(** {!Exec_ctx.Exec_error}, under the name callers match on. *)
exception Exec_error of string

(** The installed probe table an audit operator marks into; raises
    {!Exec_error} when the audit's sensitive-ID set is not installed. *)
val audit_slot : Exec_ctx.t -> string -> Exec_ctx.audit_slot

type cursor = unit -> Tuple.t option
type factory = unit -> cursor

(** Pull a cursor to exhaustion. *)
val drain : cursor -> Tuple.t list

(** The right side of an [Index_nl_join], shared by both engines:
    compiling registers the chain's metrics; invoking the result at open
    returns the probe, which maps a left row to the fetched rows that
    pass the Filter/AuditProbe chain. Chain nodes are never opened or
    fault-instrumented. *)
val index_probe :
  Exec_ctx.t ->
  left_key:Plan.Scalar.t ->
  table:string ->
  base_col:int ->
  cols:int array option ->
  chain:Plan.Physical.t ->
  unit ->
  Tuple.t ->
  Tuple.t list

(** Compile a physical plan. Audit operators resolve their ID tables from
    the context at open time; raises {!Exec_error} at open if a table was
    not installed. *)
val compile : Exec_ctx.t -> Plan.Physical.t -> factory

(** Sorter over materialized rows (keys compiled once, stable sort by the
    key vector) — shared with the compiled engine's Sort/TopK pipelines. *)
val compile_sorter :
  Exec_ctx.t ->
  (Plan.Scalar.t * Sql.Ast.order_dir) list ->
  Tuple.t list ->
  Tuple.t list

(** A hash semi-join's build side — shared with the compiled engine. *)
type semi_join_side

val semi_join_side : unit -> semi_join_side

(** Add one build-side key (a NULL is remembered, not stored). *)
val semi_join_add : Exec_ctx.t -> semi_join_side -> Value.t -> unit

(** Does a probe row with key [k] pass? Semi ([anti = false]): [k] is
    non-NULL and was built. Anti, SQL's [k NOT IN (build side)]: the
    build side is empty, or [k] is non-NULL, was not built, and no NULL
    was built. *)
val semi_join_passes : anti:bool -> semi_join_side -> Value.t -> bool

(** Compile and run, materializing all rows. *)
val run_list : Exec_ctx.t -> Plan.Physical.t -> Tuple.t list

(** Compile and run, counting rows without materializing (benchmarks). *)
val run_count : Exec_ctx.t -> Plan.Physical.t -> int
