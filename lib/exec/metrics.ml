(** Per-operator execution metrics.

    When enabled, both engines register one [op_stats] record per
    physical-plan node, in the same pre-order, and count the rows each
    node emits and the times it is opened: {!Executor.compile} wraps
    every cursor so each [getNext] call is also timed, and
    {!Compiled_exec.compile} wraps every push source and times each
    pipeline at its blocking operator (the root times the whole run).
    An index-NL join's probe-chain nodes count rows through the shared
    {!Executor.index_probe} and are never opened. The audit operator
    additionally records its probe/hit counters per instance, so EXPLAIN
    ANALYZE can show that an audit operator's input and output row counts
    are identical (the no-filtering invariant, §IV-A2) and exactly how
    many hash probes it charged the plan.

    Registration is keyed by *physical* identity of the {!Plan.Physical.t}
    node: the executor and the EXPLAIN ANALYZE renderer traverse the same
    immutable tree, so [find] recovers each node's record without any
    node-ID plumbing. Collection is off by default — the wrapper costs two
    clock reads per row — and is switched on per query by EXPLAIN ANALYZE,
    the benchmark harness, or {!Database.set_collect_metrics}. *)

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

type t = {
  mutable enabled : bool;
  mutable entries : (Plan.Physical.t * op_stats) list;
      (** registration (pre-)order, reversed; keyed by physical equality *)
}

let create () = { enabled = false; entries = [] }
let enabled m = m.enabled
let set_enabled m b = m.enabled <- b

(** Drop all records (fresh query). The enabled flag is kept. *)
let clear m = m.entries <- []

(* Monotonic source: operator timings and guard deadlines must never go
   backwards when NTP steps the wall clock. *)
let now_s () = Engine_core.Mono_clock.now ()

(* ------------------------------------------------------------------ *)
(* Registration and lookup                                             *)
(* ------------------------------------------------------------------ *)

let find m (node : Plan.Physical.t) : op_stats option =
  let rec go = function
    | [] -> None
    | (k, s) :: rest -> if k == node then Some s else go rest
  in
  go m.entries

(** Find-or-create the stats record for a physical-plan node. *)
let register m (node : Plan.Physical.t) : op_stats =
  match find m node with
  | Some s -> s
  | None ->
    let s =
      {
        label = Plan.Physical.label node;
        est_rows = node.Plan.Physical.est;
        opens = 0;
        calls = 0;
        rows = 0;
        time_s = 0.0;
        probes = 0;
        hits = 0;
      }
    in
    m.entries <- (node, s) :: m.entries;
    s

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

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
let report m : op_report list =
  List.rev_map
    (fun (_, s) ->
      {
        r_label = s.label;
        r_est_rows = s.est_rows;
        r_opens = s.opens;
        r_calls = s.calls;
        r_rows = s.rows;
        r_time_s = s.time_s;
        r_probes = s.probes;
        r_hits = s.hits;
      })
    m.entries

(** Root operator's inclusive wall time, if anything ran. *)
let total_time_s m =
  match List.rev m.entries with
  | (_, root) :: _ -> root.time_s
  | [] -> 0.0

(** Cumulative audit-operator counters across the plan. *)
let audit_totals m =
  List.fold_left
    (fun (p, h) (_, s) -> (p + s.probes, h + s.hits))
    (0, 0) m.entries
