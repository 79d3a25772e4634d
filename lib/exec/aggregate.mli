(** Aggregate accumulators with SQL semantics: NULLs are skipped,
    [COUNT(<star>)] counts rows, SUM/MIN/MAX over empty input yield NULL,
    DISTINCT filters duplicates per group. *)

open Storage

type state

val create : Plan.Logical.agg -> state

(** Feed one input value; [None] only for [COUNT(<star>)]. *)
val update : state -> Value.t option -> unit

(** Feed [n] argument-less inputs at once (the count-only scan kernel):
    equivalent to [n] [update st None] calls. *)
val update_many : state -> int -> unit

(** Feed one non-NULL unboxed int: equivalent to
    [update st (Some (Int i))] but allocation-free on the
    COUNT/SUM/AVG paths (the fused columnar aggregation kernel). *)
val add_int : state -> int -> unit

(** Feed one non-NULL unboxed float: equivalent to
    [update st (Some (Float f))], allocation-free like {!add_int}. *)
val add_float : state -> float -> unit

val final : state -> Value.t
