(** Per-operator execution metrics, keyed by physical identity of
    {!Plan.Physical.t} nodes. {!Executor.compile} registers one record per
    node when collection is enabled and wraps each cursor so every
    [getNext] is counted and timed; audit operators additionally track
    their probe/hit counters (the no-filtering invariant of §IV-A2 is
    directly visible as input rows = output rows = probes). *)

type op_stats = {
  label : string;  (** physical operator name, e.g. [HashJoin] *)
  est_rows : float;  (** planner estimate recorded on the node *)
  mutable opens : int;  (** cursor opens; >1 under a correlated Apply *)
  mutable calls : int;  (** getNext invocations, across all opens *)
  mutable rows : int;  (** rows emitted, across all opens *)
  mutable time_s : float;  (** cumulative wall time inside getNext *)
  mutable probes : int;  (** audit operators: hash probes issued *)
  mutable hits : int;  (** audit operators: probes finding a sensitive ID *)
}

type t

val create : unit -> t

(** Collection is off by default — the cursor wrapper costs two clock
    reads per row — and is switched on per query by EXPLAIN ANALYZE, the
    benchmark harness, or [Database.set_collect_metrics]. *)
val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Drop all records (fresh query). The enabled flag is kept. *)
val clear : t -> unit

(** Monotonic clock used for operator timings. *)
val now_s : unit -> float

(** Stats recorded for a node, if it was registered this query. *)
val find : t -> Plan.Physical.t -> op_stats option

(** Find-or-create the stats record for a physical-plan node. *)
val register : t -> Plan.Physical.t -> op_stats

type op_report = {
  r_label : string;
  r_est_rows : float;
  r_opens : int;
  r_calls : int;
  r_rows : int;
  r_time_s : float;
  r_probes : int;
  r_hits : int;
}

(** Immutable snapshot of all records in plan pre-order. *)
val report : t -> op_report list

(** Root operator's inclusive wall time, if anything ran. *)
val total_time_s : t -> float

(** Cumulative audit-operator [(probes, hits)] across the plan. *)
val audit_totals : t -> int * int
