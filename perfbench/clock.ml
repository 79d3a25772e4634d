(* Seconds on the kernel's monotonic clock, at nanosecond resolution
   (the per-layer spans are a few microseconds long). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
