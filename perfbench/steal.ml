(* CPU time the hypervisor handed to other guests ("steal" in
   /proc/stat). A measured phase reads it once a second; a second in
   which the VM lost a share [threshold] or more of its CPU time is
   contended: its samples time the neighbours rather than the program,
   so the latency and throughput figures leave them out. Where
   /proc/stat cannot be read no second counts as contended. *)

let threshold = 0.01

(* Steal and total jiffies over all CPUs since boot. *)
let read () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some l -> (
    match String.split_on_char ' ' l |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      (* user nice system idle iowait irq softirq steal; the guest
         fields after steal are already counted in user and nice. *)
      let f = List.filteri (fun i _ -> i < 8) fields |> List.map int_of_string in
      (List.nth f 7, List.fold_left ( + ) 0 f)
    | _ -> (0, 0))
  | None -> (0, 0)
  | exception Sys_error _ -> (0, 0)

let contended (s0, t0) (s1, t1) =
  t1 > t0 && float_of_int (s1 - s0) >= threshold *. float_of_int (t1 - t0)

type t = {
  t0 : float;
  mutable next : int;  (* the first second not yet judged *)
  mutable last : int * int;
  bad : (int, unit) Hashtbl.t;  (* contended seconds *)
}

let start t0 = { t0; next = 0; last = read (); bad = Hashtbl.create 8 }

(* Judge every whole second of the phase that has ended by [now]. Call
   it often; a late call judges all the seconds it missed alike. *)
let tick s now =
  let ended = int_of_float (now -. s.t0) in
  if ended > s.next then begin
    let cur = read () in
    if contended s.last cur then
      for k = s.next to ended - 1 do
        Hashtbl.replace s.bad k ()
      done;
    s.last <- cur;
    s.next <- ended
  end

let judged s = s.next
let clean_seconds s = s.next - Hashtbl.length s.bad

(* The seconds whose samples [clean] keeps: the uncontended ones, or all
   judged seconds if the phase ran contended throughout. *)
let seconds_kept s = if clean_seconds s = 0 then judged s else clean_seconds s

let kept s k = k < s.next && (clean_seconds s = 0 || not (Hashtbl.mem s.bad k))

let clean s (samples : Stats.sample list) =
  List.filter (fun (x : Stats.sample) -> kept s (int_of_float x.Stats.t)) samples
