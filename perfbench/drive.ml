(* The end-to-end phases, all on the generator's one thread: an open or
   closed loop over up to two connections multiplexed with
   [Unix.select], and a closed paired loop that sends each statement to
   the audited server and to its unaudited twin. *)

open Workload

let now = Clock.now

(* Run-wide operation accounting, including what the evidence gates
   need to know about acknowledged statements. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reads : (int * int * int) list;
      (* acknowledged primary-key reads on the audited server:
         (session, seq, key) *)
  mutable updates : int;  (* acknowledged UPDATEs on the audited server *)
  updated : (int, int) Hashtbl.t;  (* ... of them per customer key *)
  mutable acked : int;  (* acknowledged statements on the audited server *)
  mutable on_acked : int -> unit;  (* called with [acked] after each *)
  mutable errors : string list;  (* a few failure messages, for stderr *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    reads = [];
    updates = 0;
    updated = Hashtbl.create 256;
    acked = 0;
    on_acked = ignore;
    errors = [];
  }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 5 then tally.errors <- msg :: tally.errors

(* Count one reply; [Some text] when it is an acknowledged, well-formed
   result. [audited] replies also feed the evidence gates. *)
let note tally ~audited (c : Conn.t) seq st (o : Conn.outcome) =
  tally.attempted <- tally.attempted + 1;
  match o with
  | Conn.Shed ->
    fail tally "statement shed (overloaded)";
    None
  | Conn.Error m ->
    fail tally (Printf.sprintf "%s -> %s" st.sql m);
    None
  | Conn.Ok text when not (reply_ok st text) ->
    fail tally (Printf.sprintf "%s -> unexpected reply %S" st.sql text);
    None
  | Conn.Ok text ->
    if audited then begin
      (match st.kind with
      | Read -> tally.reads <- (c.Conn.session, seq, st.key) :: tally.reads
      | Update ->
        tally.updates <- tally.updates + 1;
        Hashtbl.replace tally.updated st.key
          (1 + Option.value (Hashtbl.find_opt tally.updated st.key) ~default:0)
      | Count -> ());
      tally.acked <- tally.acked + 1;
      tally.on_acked tally.acked
    end;
    Some text

type loop_result = {
  latencies : Stats.sample list;  (* ms, of acknowledged statements *)
  lags : float list;  (* ms each send was late *)
  wall_s : float;  (* first due send to last reply *)
  cpu_s : float;  (* the generator's own CPU time over the loop *)
  steal : Steal.t;  (* which of the loop's seconds were contended *)
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type pending = { st : stmt; seq : int; due : float }

(* Drive [conns] (all on the audited server) for [seconds]. With [rate]
   the loop is open: statement k is due at start + k/rate, whatever is
   still outstanding, and goes to connection k mod n; its latency runs
   from that due time, so a stall is charged to every statement it
   delays. Without [rate] the loop is closed: each connection sends its
   next statement as soon as its previous reply arrives. *)
let run_loop tally ~(conns : Conn.t array) ~shape ~next ?rate ~seconds () =
  let n = Array.length conns in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let latencies = ref [] and lags = ref [] in
  let outstanding = ref 0 and issued = ref 0 in
  let cpu0 = cpu () in
  let t0 = now () in
  let steal = Steal.start t0 in
  let until = t0 +. seconds in
  let last = ref t0 in
  let send i due =
    let st = next i in
    let sent = now () in
    let seq = Conn.send conns.(i) st.sql in
    Queue.push { st; seq; due } queues.(i);
    incr outstanding;
    incr issued;
    lags := ((sent -. due) *. 1000.0) :: !lags
  in
  let due_at r k = t0 +. (float_of_int k /. r) in
  (match rate with None -> Array.iteri (fun i _ -> send i t0) conns | Some _ -> ());
  let receive i =
    Conn.fill conns.(i);
    let rec drain () =
      match Conn.take conns.(i) with
      | None -> ()
      | Some resp ->
        let t = now () in
        last := t;
        let p = Queue.pop queues.(i) in
        decr outstanding;
        (match note tally ~audited:true conns.(i) p.seq p.st (Conn.outcome resp) with
        | Some _ ->
          latencies :=
            { Stats.t = t -. t0; shape = shape p.st; v = (t -. p.due) *. 1000.0 }
            :: !latencies
        | None -> ());
        if rate = None && t < until then send i t;
        drain ()
    in
    drain ()
  in
  (* An open-loop statement is sent only once its connection is
     writable, in the same select that reads replies: after a stall, a
     burst of overdue statements then cannot fill both socket buffers
     and deadlock the generator against the server. *)
  let rec loop () =
    let t = now () in
    Steal.tick steal t;
    let due =
      match rate with
      | Some r when due_at r !issued <= t && due_at r !issued < until ->
        Some (r, !issued mod n)
      | _ -> None
    in
    let sending = rate <> None && t < until in
    if !outstanding > 0 || sending then begin
      let timeout =
        match (rate, due) with
        | Some r, None when sending -> Float.max 0.0 (due_at r !issued -. t)
        | _ -> 1.0
      in
      let rfds =
        Array.to_list conns
        |> List.filteri (fun i _ -> not (Queue.is_empty queues.(i)))
        |> List.map (fun c -> c.Conn.fd)
      in
      let wfds = match due with Some (_, i) -> [ conns.(i).Conn.fd ] | None -> [] in
      let readable, writable =
        match Unix.select rfds wfds [] timeout with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      Array.iteri (fun i c -> if List.mem c.Conn.fd readable then receive i) conns;
      (match due with
      | Some (r, i) when writable <> [] -> send i (due_at r !issued)
      | _ -> ());
      loop ()
    end
  in
  loop ();
  Steal.tick steal (now ());
  {
    latencies = !latencies;
    lags = !lags;
    wall_s = !last -. t0;
    cpu_s = cpu () -. cpu0;
    steal;
  }

type paired_result = {
  audited : Stats.sample list;  (* ms *)
  twin : Stats.sample list;
  paired_wall_s : float;
  paired_cpu_s : float;  (* the generator's own CPU time over the loop *)
  paired_steal : Steal.t;
}

(* Closed loop over one connection to each server: every statement runs
   on both, the side that goes first alternating pair by pair (starting
   side from [audited_first]), so host drift within the phase hits both
   sides alike. The two result texts must be byte-equal: audit operators
   never change results. Stops after [seconds] or [max_pairs] pairs. *)
let run_paired tally ~(audited : Conn.t) ~(twin : Conn.t) ~shape ~next ~audited_first
    ?(max_pairs = max_int) ~seconds () =
  let cpu0 = cpu () in
  let t0 = now () in
  let steal = Steal.start t0 in
  let until = t0 +. seconds in
  let la = ref [] and lb = ref [] and k = ref 0 in
  while now () < until && !k < max_pairs do
    Steal.tick steal (now ());
    let st = next () in
    let run c =
      let t0 = now () in
      let seq, o = Conn.exec c st.sql in
      (seq, o, (now () -. t0) *. 1000.0)
    in
    let (sa, oa, ma), (_, ob, mb) =
      if (!k mod 2 = 0) = audited_first then
        let a = run audited in
        (a, run twin)
      else
        let b = run twin in
        (run audited, b)
    in
    let ra = note tally ~audited:true audited sa st oa in
    let rb = note tally ~audited:false twin 0 st ob in
    (match (ra, rb) with
    | Some ta, Some tb when ta = tb ->
      let t = now () -. t0 and shape = shape st in
      la := { Stats.t; shape; v = ma } :: !la;
      lb := { Stats.t; shape; v = mb } :: !lb
    | Some ta, Some tb ->
      fail tally
        (Printf.sprintf "%s: audited and twin results differ:\n%s\n%s" st.sql ta tb)
    | _ -> ());
    incr k
  done;
  Steal.tick steal (now ());
  {
    audited = !la;
    twin = !lb;
    paired_wall_s = now () -. t0;
    paired_cpu_s = cpu () -. cpu0;
    paired_steal = steal;
  }
