(** Push-based compiled execution of physical plans (data-centric).

    The fast engine. Instead of pulling tuples through a per-operator
    getNext virtual call ({!Executor}), [compile] splits the plan into
    pipelines at the blocking operators — hash-join and semi-join builds,
    HashAgg, Sort, TopK, Except/Intersect builds — and fuses each
    pipeline (scan→filter→project→audit-probe→…) into one push-based
    closure: the scan loop drives every row through plain OCaml function
    composition, with the audit probe of §IV-A2 lowered to an inline
    branch in the loop body. Column permutations fuse into the hash join
    below them, and over columnar tables pipeline heads run on slot
    numbers through {!Col_pred} kernels: filtered scans materialize only
    survivors, grouped and scalar aggregation and single-key joins build
    only their output rows, and a bare [COUNT(<star>)] reads the live-row
    count of either store.

    Semantics — emission order, 3VL, audit evidence, budget accounting
    (per-row [note_scanned], [note_materialized] at the same buffering
    points) and the row engine's open-time effect order — are identical
    to {!Executor}, which remains the differential oracle. Every operator
    runs here: [Limit] and [Apply] stop their child after the rows they
    need with a local exception (unguarded scans charge the rows they
    read on every exit), an [Index_nl_join] runs the row engine's probe chain
    ({!Executor.index_probe}) per left row, and an armed fault kit
    compiles a fault site into every node's wrapper that fires in the
    row engine's getNext order, with every fused head falling back to the
    per-node pipeline. *)

open Storage

type sink = Tuple.t -> unit

(** A compiled pipeline tree: [run sink] pushes every output row into
    [sink] in the row engine's emission order and returns when the input
    is exhausted. *)
type source = sink -> unit

(** A factory, as in {!Executor}: invoking it performs the open-time
    effects (table resolution, audit-set lookup, blocking builds) in the
    row engine's order and returns the streaming source. *)
type factory = unit -> source

(** Rows per chunk of the generic base-table scan loop. *)
val scan_chunk : int

(** Compile a physical plan for the push engine. Raises
    {!Executor.Exec_error} like the row engine (e.g. audit-ID table not
    installed, at open). *)
val compile : Exec_ctx.t -> Plan.Physical.t -> factory

(** Compile and run, materializing all rows (row order identical to
    {!Executor.run_list}). *)
val run_list : Exec_ctx.t -> Plan.Physical.t -> Tuple.t list

(** Compile and run, counting rows without materializing (benchmarks). *)
val run_count : Exec_ctx.t -> Plan.Physical.t -> int
