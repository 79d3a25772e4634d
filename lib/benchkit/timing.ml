(** Wall-clock measurement helpers for the experiment harness.

    Overheads in the paper are single-digit percentages, so the harness
    takes medians over repeated runs and reports relative overhead against a
    baseline measured in the same session. *)

(* A non-decreasing clock: a backward wall-clock step during a sample
   would otherwise yield a too-small or negative time, which a minimum
   over samples then reports. *)
let now = Engine_core.Mono_clock.now

(** Run [f] once and return elapsed seconds. *)
let time_once f =
  let t0 = now () in
  f ();
  now () -. t0

(** [measure ~warmup ~repeats f] returns all repeat timings (seconds). *)
let measure ?(warmup = 1) ~repeats f =
  for _ = 1 to warmup do
    f ()
  done;
  List.init repeats (fun _ -> time_once f)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let a = List.nth sorted ((n - 1) / 2) in
    let b = List.nth sorted (n / 2) in
    (a +. b) /. 2.0

(** Median-of-runs for a thunk. *)
let median_time ?(warmup = 1) ?(repeats = 5) f =
  median (measure ~warmup ~repeats f)

(** Relative overhead of [t] over baseline [base], in percent. *)
let overhead_pct ~base t = (t -. base) /. base *. 100.0

(** Compare thunks fairly. Each thunk is auto-batched so one sample takes at
    least [target] seconds (drowning clock granularity), samples are taken
    round-robin across thunks (so clock drift, GC pressure and cache state
    hit every thunk equally), and the per-thunk minimum is returned — the
    robust estimator for deterministic CPU-bound work. *)
let compare_thunks ?(target = 0.05) ?(repeats = 5) ?(warmup = 1)
    (thunks : (unit -> unit) list) : float list =
  let batch =
    List.map
      (fun f ->
        for _ = 1 to warmup do
          f ()
        done;
        let once = time_once f in
        let n = max 1 (int_of_float (Float.ceil (target /. Float.max 1e-6 once))) in
        (f, n))
      thunks
  in
  let best = Array.make (List.length thunks) infinity in
  for _ = 1 to repeats do
    List.iteri
      (fun i (f, n) ->
        let t =
          time_once (fun () ->
              for _ = 1 to n do
                f ()
              done)
          /. float_of_int n
        in
        if t < best.(i) then best.(i) <- t)
      batch
  done;
  Array.to_list best
