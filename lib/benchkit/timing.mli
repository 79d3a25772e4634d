(** Wall-clock measurement for the experiment harness. *)

(** Seconds on the engine's monotonic clock ({!Engine_core.Mono_clock};
    arbitrary epoch, so only differences are meaningful). *)
val now : unit -> float

(** Run once, return elapsed seconds. *)
val time_once : (unit -> unit) -> float

(** All repeat timings after warmup. *)
val measure : ?warmup:int -> repeats:int -> (unit -> unit) -> float list

val mean : float list -> float
val median : float list -> float

(** Median of repeated runs. *)
val median_time : ?warmup:int -> ?repeats:int -> (unit -> unit) -> float

(** Relative overhead of [t] over [base], percent. *)
val overhead_pct : base:float -> float -> float

(** Compare thunks fairly: each is auto-batched to at least [target]
    seconds per sample, samples are taken round-robin across all thunks,
    and per-thunk minima are returned — the robust estimator for
    deterministic CPU-bound work. *)
val compare_thunks :
  ?target:float ->
  ?repeats:int ->
  ?warmup:int ->
  (unit -> unit) list ->
  float list
