(** Execution context: everything a running plan needs besides its
    operators — the catalog, session state, correlation parameters, the
    audit machinery, and the virtual-deletion hook used by the exact
    offline auditor.

    ACCESSED representation (§IV-A2): each audit expression's sensitive-ID
    table maps IDs to {e generation marks}. The audit operator records an
    access by storing the current statement's generation into the probed
    entry — probe-and-mark is one hash lookup — and the first time a
    statement marks an ID it also appends the ID to the statement's
    ACCESSED log. The log, not the table, is what gets harvested, so the
    harvest costs what the statement hit. Generations are unique across
    every context in the process, so the shared tables never hide one
    session's access behind another session's mark. *)

open Storage

(** A runtime execution failure (an unknown table, an audit-ID set not
    installed); re-exported as [Executor.Exec_error]. *)
exception Exec_error of string

(** An installed probe table plus this context's ACCESSED log for it. *)
type audit_slot

type t = {
  catalog : Catalog.t;
  mutable session_id : int;
      (** identity of the owning session in served (multi-client) mode;
          0 for the single-session engine. Stamped onto WAL evidence
          records so concurrent audit trails stay attributable. *)
  mutable now : int;  (** logical clock behind [now()] *)
  mutable user : string;  (** session user behind [user_id()] *)
  mutable sql : string;  (** statement text behind [sql_text()] *)
  mutable hide : (string * int * Value.t) option;
      (** virtually delete the rows of [table] whose column equals the
          value — evaluates Q(D - t) for Definition 2.3 without mutating
          the database; set only by [Db.Database.exact_accessed] *)
  audit_sets : (string, audit_slot) Hashtbl.t;
      (** per audit expression: the shared probe table and this context's
          ACCESSED log *)
  mutable generation : int;
      (** the current statement's generation, drawn from a process-wide
          counter *)
  mutable params : Tuple.t list;
      (** correlation stack: the nearest enclosing Apply's outer row is the
          head *)
  mutable interpret_exprs : bool;
      (** evaluate scalars with the {!Eval} reference interpreter instead
          of compiled closures (oracle mode for parity tests and the
          before/after benchmark) *)
  mutable audit_probes : int;  (** statistics: rows seen by audit operators *)
  mutable audit_hits : int;  (** statistics: rows matching a sensitive ID *)
  mutable rows_scanned : int;
  metrics : Metrics.t;
      (** per-operator stats registry; populated only while metrics
          collection is enabled (EXPLAIN ANALYZE, benchmarks) *)
  mutable timeout_s : float option;
      (** per-query wall-clock budget; [reset_query_state] arms the
          deadline from it *)
  mutable deadline : float option;  (** monotonic deadline of this query *)
  mutable row_budget : int option;  (** max base-table rows scanned *)
  mutable mem_budget : int option;
      (** max tuples materialized by blocking operators *)
  mutable tuples_materialized : int;
  mutable guard_ticks : int;
  faults : Engine_core.Faultkit.t;
      (** fault-injection plan consulted by the executor, the trigger
          runner and the audit log *)
}

val create : ?session_id:int -> Catalog.t -> t

(** The table a scan or index lookup reads, resolved when its operator
    opens; raises {!Exec_error} for an unknown table. *)
val resolve_table : t -> string -> Table.t

(** The [(column, value)] partition of [table] that [hide]
    virtually deletes, if any (table names compare case-insensitively). *)
val hide_for : t -> string -> (int * Value.t) option

(** Install the sensitive-ID mark table an audit operator probes
    (normally via [Db.Database.install_audit_sets]). Re-installing keeps
    the statement's log. *)
val set_audit_ids : t -> audit_name:string -> int ref Value.Hashtbl_v.t -> unit

val audit_slot : t -> audit_name:string -> audit_slot option

(** The audit operator's per-row body, the one copy the row and
    compiled engines both call: count the probe (and in [stats]), look the
    ID up, and on a hit mark it, logging it the first time this statement
    marks it. Never filters, and is the one writer of a statement's
    ACCESSED log (the rows an UPDATE or DELETE modifies are read too). *)
val probe : t -> audit_slot -> Metrics.op_stats option -> Value.t -> unit

(** Start a read inside the current statement: from now on the logs
    hold only the read's own accesses (a new generation logs again an ID
    the statement already marked). The returned closure puts the
    statement's earlier accesses back under them. *)
val begin_read : t -> unit -> unit

(** Start a fresh query: draws a new generation (every mark turns stale
    in O(1)), empties the logs and resets the correlation stack and
    counters. *)
val reset_query_state : t -> unit

(** Sorted, duplicate-free ACCESSED IDs of the current statement for an
    audit expression, read from the log. *)
val accessed_list : t -> audit_name:string -> Value.t list

val accessed_count : t -> audit_name:string -> int

(** {1 Query guards}

    Cooperative cancellation: a tripped guard raises
    [Engine_core.Engine_error.Error (Cancelled _)]. The database layer
    still flushes the partial ACCESSED set before re-raising. *)

(** Any guard armed for the current query? *)
val guards_armed : t -> bool

(** Check the wall-clock deadline now (cursor opens). *)
val check_deadline : t -> unit

(** Cheap periodic guard check (per [getNext] when guards are armed). *)
val check_guards : t -> unit

(** Count a base-table row against the scan budget. *)
val note_scanned : t -> unit

(** Count [n] base-table rows at once (a chunked scan's per-chunk
    charge). Only valid when no row budget is armed — it never cancels;
    with a budget armed, charge per row via {!note_scanned} so the query
    cancels at the exact row the row engine would. *)
val note_scanned_many : t -> int -> unit

(** Count a tuple materialized by a blocking operator against the memory
    budget. *)
val note_materialized : t -> unit
