(** Aggregate accumulators (COUNT/SUM/AVG/MIN/MAX, with DISTINCT).

    SQL semantics: NULL inputs are skipped by every aggregate; [COUNT(<star>)]
    counts rows; SUM/MIN/MAX of an empty (or all-NULL) input is NULL; AVG
    divides by the non-NULL count. *)

open Storage
open Plan

(* A float-only record is stored flat, so adding to it allocates
   nothing (a mutable float field of [state] would box every update). *)
type sum = { mutable total : float }

type state = {
  agg : Logical.agg;
  mutable count : int;
  sum : sum;
  mutable sum_is_int : bool;
  mutable best : Value.t;  (** current MIN/MAX, Null until first input *)
  seen : unit Value.Hashtbl_v.t option;  (** DISTINCT filter *)
}

let create (agg : Logical.agg) =
  {
    agg;
    count = 0;
    sum = { total = 0.0 };
    sum_is_int = true;
    best = Value.Null;
    seen =
      (if agg.Logical.distinct then Some (Value.Hashtbl_v.create 16) else None);
  }

(** Feed one input. [v = None] only for COUNT(<star>). *)
let update st (v : Value.t option) =
  match v with
  | None -> st.count <- st.count + 1
  | Some Value.Null -> ()
  | Some v -> (
    let fresh =
      match st.seen with
      | None -> true
      | Some tbl ->
        if Value.Hashtbl_v.mem tbl v then false
        else begin
          Value.Hashtbl_v.replace tbl v ();
          true
        end
    in
    if fresh then
      match st.agg.Logical.func with
      | Logical.Count -> st.count <- st.count + 1
      | Logical.Sum | Logical.Avg ->
        st.count <- st.count + 1;
        (match v with
        | Value.Int i -> st.sum.total <- st.sum.total +. float_of_int i
        | Value.Float f ->
          st.sum.total <- st.sum.total +. f;
          st.sum_is_int <- false
        | v -> Value.type_error "SUM/AVG of non-number %s" (Value.to_string v));
        ()
      | Logical.Min ->
        if Value.is_null st.best || Value.compare_total v st.best < 0 then
          st.best <- v
      | Logical.Max ->
        if Value.is_null st.best || Value.compare_total v st.best > 0 then
          st.best <- v)

(** Feed [n] argument-less inputs at once — the count-only scan kernel
    adds the live-row count instead of counting per row. Equivalent to [n]
    [update st None] calls. *)
let update_many st n = st.count <- st.count + n

(** Feed one non-NULL unboxed int — the fused columnar aggregation
    kernel's entry point: exactly [update st (Some (Int i))] without the
    [Some]/[Int] allocations on the SUM/AVG/COUNT hot paths. *)
let add_int st i =
  match (st.seen, st.agg.Logical.func) with
  | None, Logical.Count -> st.count <- st.count + 1
  | None, (Logical.Sum | Logical.Avg) ->
    st.count <- st.count + 1;
    st.sum.total <- st.sum.total +. float_of_int i
  | _ -> update st (Some (Value.Int i))

(** Non-NULL unboxed float counterpart of {!add_int}. *)
let add_float st f =
  match (st.seen, st.agg.Logical.func) with
  | None, Logical.Count -> st.count <- st.count + 1
  | None, (Logical.Sum | Logical.Avg) ->
    st.count <- st.count + 1;
    st.sum.total <- st.sum.total +. f;
    st.sum_is_int <- false
  | _ -> update st (Some (Value.Float f))

let final st : Value.t =
  match st.agg.Logical.func with
  | Logical.Count -> Value.Int st.count
  | Logical.Sum ->
    if st.count = 0 then Value.Null
    else if st.sum_is_int && Float.is_integer st.sum.total
            && Float.abs st.sum.total < 4e15 then
      Value.Int (int_of_float st.sum.total)
    else Value.Float st.sum.total
  | Logical.Avg ->
    if st.count = 0 then Value.Null
    else Value.Float (st.sum.total /. float_of_int st.count)
  | Logical.Min | Logical.Max -> st.best
