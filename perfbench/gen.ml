(* The audit-server benchmark's load generator.

     gen.exe --workload point_lookup --seed 1 --seconds 20 --trace 0 \
       --serverd _build/default/bin/serverd.exe --out perfbench/_out

   --trace 0 (end to end): spawns the audited serverd several times to
   time set-up, then an unaudited twin (same flags and schema, no audit
   expression or SELECT trigger), drives the workload's phases over the
   wire, stops both with SIGTERM and checks the evidence. --trace 1 (per
   layer): one shorter end-to-end pass for the server-side counters,
   then the traced in-process replica (see replica.ml). The last line of
   stdout is one JSON object: correct, attempted, failed and the
   metrics. *)

open Workload

let now = Clock.now

(* Spawns of the audited server whose first-reply times give setup_s:
   some before the measured phases (the last one serves them) and some
   after, so that the median does not hang on the host's speed in the
   first seconds of a run. *)
let spawns_before = 5
let spawns_after = 5

(* Unmeasured pairs of statements that warm both servers up. *)
let warmup_pairs = 500

(* peak_rss_mb is read once the audited server has acknowledged this
   many statements: its heap grows with every trigger notification it
   keeps, so a peak taken after a fixed amount of work, not after a
   fixed time, does not follow the host's speed. *)
let rss_after = 20_000

(* Seconds after which a run gives up. *)
let watchdog_s = 160

type run = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

(* ------------------------------------------------------------------ *)
(* Evidence gates                                                      *)
(* ------------------------------------------------------------------ *)

let query_ints c sql =
  match Conn.exec c sql with
  | _, Conn.Ok text ->
    String.split_on_char '\n' text
    |> List.filter_map (fun l -> int_of_string_opt (String.trim l))
  | _ -> failwith ("maintenance query failed: " ^ sql)

let query_float c sql =
  match Conn.exec c sql with
  | _, Conn.Ok text -> (
    match String.split_on_char '\n' text with
    | [ _; v; _ ] -> float_of_string (String.trim v)
    | _ -> failwith ("unexpected reply to " ^ sql))
  | _ -> failwith ("maintenance query failed: " ^ sql)

(* The WAL after the drain must recover whole, and every acknowledged
   primary-key read must have exactly one ACCESSED record naming its key
   if the key is audited, and none otherwise (Theorem 3.7's exactness
   for select-only queries). Returns the reads whose evidence is not
   exact and the WAL's size. *)
let wal_gate (tally : Drive.tally) ~wal ~building =
  let records, recovery = Audit_log.Wal.read_all wal in
  if recovery.Audit_log.Wal.truncated_bytes > 0 || recovery.Audit_log.Wal.corrupt
  then Drive.fail tally "audit log has a torn or corrupt tail";
  let accessed = Hashtbl.create 4096 in
  List.iter
    (function
      | Audit_log.Wal.Accessed { session; seq; audit; ids; _ } ->
        Hashtbl.add accessed (session, seq) (audit, ids)
      | _ -> ())
    records;
  let inexact =
    List.filter_map
      (fun (session, seq, key) ->
        let expected =
          if Hashtbl.mem building key then [ (audit_name, [ string_of_int key ]) ]
          else []
        in
        let found = Hashtbl.find_all accessed (session, seq) in
        if found = expected then None
        else
          Some
            (Printf.sprintf
               "session %d seq %d (key %d): ACCESSED evidence is not exact: [%s]"
               session seq key
               (String.concat "; "
                  (List.map (fun (a, ids) -> a ^ " " ^ String.concat "," ids) found))))
      tally.Drive.reads
  in
  (inexact, Unix.((stat wal).st_size))

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* What the run is doing, for the watchdog's message. *)
let phase = ref "start"

type e2e = {
  tally : Drive.tally;
  setup : (float * bool) list;  (* seconds from spawn to first reply; contended *)
  main : Drive.loop_result option;  (* the workload's own loop *)
  paired : Drive.paired_result;
  rss : float;
  stats : Proc.stats;
  wal_bytes : int;
  inexact_frac : float;
}

(* [with_loop]: whether point_lookup runs its open loop before the
   paired phase (audited_writes always runs its closed loop). *)
let end_to_end w ~exe ~seed ~seconds ~with_loop ~spawns:(before, after) =
  let tally = Drive.tally () in
  let flags = [ "--tpch"; "0.01"; "--exec"; "compiled"; "--storage"; storage; "--elide" ] in
  (* Start serverd with [statements] as its init script and check that it
     holds what they create and nothing else. *)
  let start name statements =
    let init =
      if statements = [] then None
      else begin
        let file = name ^ ".sql" in
        Out_channel.with_open_bin file (fun oc -> output_string oc (script statements));
        Some (file, List.length statements)
      end
    in
    let s0 = Steal.read () in
    let p, c, dt =
      Proc.start ~exe ~name
        (flags @ match init with Some (f, _) -> [ "--init"; f ] | None -> [])
    in
    let contended = Steal.contended s0 (Steal.read ()) in
    Proc.confirm p c ~storage ~init
      ~audits:(created "AUDIT EXPRESSION" statements)
      ~triggers:(created "TRIGGER" statements);
    (p, c, (dt, contended))
  in
  let start_audited () = start "audited" (audited_statements w) in
  let throwaway () =
    let p, c, dt = start_audited () in
    Conn.close c;
    Proc.stop p;
    dt
  in
  phase := "set-up";
  let setup = List.init (before - 1) (fun _ -> throwaway ()) in
  let audited, c0, dt = start_audited () in
  let setup = dt :: setup in
  let twin, twin_c, _ = start "twin" (schema_statements w) in
  Conn.start_session c0;
  Conn.start_session twin_c;
  let rss = ref None in
  tally.Drive.on_acked <-
    (fun n -> if n = rss_after then rss := Some (Proc.peak_rss_mb audited));
  let building = Hashtbl.create 512 in
  List.iter
    (fun k -> Hashtbl.replace building k ())
    (query_ints twin_c
       "SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'");
  (* sum(c_acctbal) prints with six significant digits, so it is read
     as an offset from a rounded baseline, exact to far below 1. *)
  let base = Float.round (query_float c0 "SELECT sum(c_acctbal) FROM customer") in
  let sum_sql = Printf.sprintf "SELECT sum(c_acctbal) - %.0f FROM customer" base in
  let sum0 = query_float c0 sum_sql in
  let open_conn name =
    let c = Conn.connect name in
    Conn.hello c ~user:"perfbench";
    Conn.start_session c;
    c
  in
  let shape = shape ~building in
  let pairs ~lane ?max_pairs ~seconds () =
    let s = stream w ~seed ~lane in
    Drive.run_paired tally ~audited:c0 ~twin:twin_c ~shape ~next:(fun () -> next s)
      ~audited_first:(seed mod 2 = 0) ?max_pairs ~seconds ()
  in
  phase := "warm-up";
  ignore (pairs ~lane:3 ~max_pairs:warmup_pairs ~seconds:infinity ());
  (* audited_writes' absolute figures come from its loop, so the loop
     gets most of the run; the paired ratio steadies on far fewer pairs. *)
  let loop_s =
    match w with
    | Audited_writes -> seconds *. 0.75
    | Point_lookup when with_loop -> seconds /. 2.0
    | Point_lookup -> 0.0
  in
  let main =
    if loop_s = 0.0 then None
    else begin
      let s0 = stream w ~seed ~lane:0 and s1 = stream w ~seed ~lane:1 in
      let next i = next (if i = 0 then s0 else s1) in
      (* point_lookup keeps the audited server to one session: with two,
         ACCESSED sets leak between sessions (see wal_gate's caller). *)
      let rate, conns =
        match w with
        | Point_lookup -> (Some point_rate, [| c0 |])
        | Audited_writes -> (None, [| c0; open_conn audited.Proc.sock |])
      in
      (* Only the loop's UPDATEs reach the audited server alone. *)
      Hashtbl.reset tally.Drive.updated;
      phase := "main loop";
      let m = Drive.run_loop tally ~conns ~shape ~next ?rate ~seconds:loop_s () in
      if Array.length conns > 1 then Conn.close conns.(1);
      (* The twin must hold the same data before the paired phase: apply
         the balance changes the audited server acknowledged (untimed). *)
      Hashtbl.iter
        (fun k n ->
          match
            Conn.exec twin_c
              (Printf.sprintf
                 "UPDATE customer SET c_acctbal = c_acctbal + %d WHERE c_custkey = %d"
                 n k)
          with
          | _, Conn.Ok "(1 rows affected)" -> ()
          | _ -> failwith "could not bring the twin's balances in line")
        tally.Drive.updated;
      Some m
    end
  in
  phase := "paired phase";
  let paired = pairs ~lane:2 ~seconds:(seconds -. loop_s) () in
  phase := "gates";
  (match w with
  | Audited_writes ->
    let history = query_ints c0 "SELECT count(*) FROM customer_history" in
    let delta = query_float c0 sum_sql -. sum0 in
    if history <> [ tally.Drive.updates ] then
      Drive.fail tally "history rows differ from acknowledged UPDATEs";
    if Float.abs (delta -. float_of_int tally.Drive.updates) > 0.5 then
      Drive.fail tally
        (Printf.sprintf "sum(c_acctbal) moved by %g for %d acknowledged UPDATEs"
           delta tally.Drive.updates)
  | Point_lookup -> ());
  let rss = match !rss with Some r -> r | None -> Proc.peak_rss_mb audited in
  Conn.close c0;
  Conn.close twin_c;
  Proc.stop audited;
  Proc.stop twin;
  let stats = Proc.stats audited in
  let inexact, wal_bytes = wal_gate tally ~wal:audited.Proc.wal ~building in
  let setup = setup @ List.init after (fun _ -> throwaway ()) in
  (* Sessions share each audit's table of generation marks but count
     generations from the same start, so a mark one session leaves can
     match another session's current generation: its ACCESSED set (and
     the trigger firing on it) then names rows it never read. The gate
     fails point_lookup, which has one audited session; audited_writes
     runs two and reports the share it sees as audit_log.inexact_frac. *)
  (match w with
  | Point_lookup -> List.iter (Drive.fail tally) inexact
  | Audited_writes -> ());
  {
    tally;
    setup;
    main;
    paired;
    rss;
    stats;
    wal_bytes;
    inexact_frac =
      float_of_int (List.length inexact)
      /. float_of_int (max 1 (List.length tally.Drive.reads));
  }

(* End-to-end metrics, over the uncontended seconds of their phase (see
   steal.ml). audited_writes takes its latencies and throughput from its
   two-connection loop; point_lookup from the audited side of its
   closed paired phase, where throughput is audited statements per
   second of audited time (an open loop's served rate is its offered
   rate, whatever the server's speed). Percentiles are pooled over the
   phase's clean seconds. *)
let e2e_metrics w { setup; main; paired; rss; _ } =
  let samples, steal =
    match (w, main) with
    | Audited_writes, Some m -> (m.Drive.latencies, m.Drive.steal)
    | _ -> (paired.Drive.audited, paired.Drive.paired_steal)
  in
  let lat = Stats.values (Steal.clean steal samples) in
  let qps =
    match w with
    | Audited_writes -> float_of_int (List.length lat) /. float_of_int (Steal.seconds_kept steal)
    | Point_lookup -> float_of_int (List.length lat) /. (Stats.sum lat /. 1000.0)
  in
  let ps = paired.Drive.paired_steal in
  let setup_s =
    match List.filter_map (fun (dt, contended) -> if contended then None else Some dt) setup with
    | [] -> Stats.median (List.map fst setup)
    | clean -> Stats.median clean
  in
  [
    ("setup_s", setup_s, "s");
    ("latency_p50_ms", Stats.median lat, "ms");
    ("latency_p90_ms", Stats.pct lat 0.9, "ms");
    ("latency_p99_ms", Stats.pct lat 0.99, "ms");
    ("throughput_qps", qps, "1/s");
    ( "audit_slowdown",
      Stats.paired_ratio (Steal.clean ps paired.Drive.audited) (Steal.clean ps paired.Drive.twin),
      "ratio" );
    ("peak_rss_mb", rss, "MB");
  ]

(* ------------------------------------------------------------------ *)
(* Host reference                                                      *)
(* ------------------------------------------------------------------ *)

(* A fixed integer loop: how fast the host ran this time. Reported to
   explain drift; never used to normalise. *)
let host_ref_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := (!acc * 31) + (i lxor (!acc lsr 7))
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.0

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let run w ~exe ~seed ~seconds ~trace ~out =
  if trace then begin
    let e =
      end_to_end w ~exe ~seed ~seconds:(seconds /. 2.0) ~with_loop:true ~spawns:(1, 0)
    in
    phase := "traced replica";
    let r =
      Replica.run w ~seed ~seconds:(seconds /. 2.0)
        ~span_file:(Filename.concat out (Printf.sprintf "spans-%s.jsonl" (name w)))
    in
    let get n = List.find_map (fun (m, v, _) -> if m = n then Some v else None) r.Replica.metrics in
    let m = Option.get e.main in
    let lat = m.Drive.latencies in
    (* What the client waited beyond execution and evidence commit:
       transport, the statement-lock queue and hand-offs. *)
    let wait_us =
      (Stats.shape_pct lat 0.5 *. 1000.0) -. Option.value (get "db.served_us") ~default:0.0
    in
    let served = float_of_int (max 1 e.stats.Proc.statements) in
    let contended =
      List.fold_left
        (fun (bad, all) s -> (bad + Steal.judged s - Steal.clean_seconds s, all + Steal.judged s))
        (0, 0)
        [ m.Drive.steal; e.paired.Drive.paired_steal ]
    in
    let metrics =
      r.Replica.metrics
      @ [
          ("audit_log.bytes_per_op", float_of_int e.wal_bytes /. served, "bytes");
          ("audit_log.inexact_frac", e.inexact_frac, "ratio");
          ("audit_log.fsyncs_per_op", float_of_int e.stats.Proc.fsyncs /. served, "count");
          ( "audit_log.records_per_fsync",
            float_of_int e.stats.Proc.records /. float_of_int (max 1 e.stats.Proc.fsyncs),
            "count" );
          ("server.wait_us", wait_us, "us");
          ( "server.shed_frac",
            float_of_int e.stats.Proc.shed /. float_of_int (max 1 e.tally.Drive.attempted),
            "ratio" );
          ("e2e.loop_p50_ms", Stats.median (Stats.values lat), "ms");
          ("e2e.loop_p99_ms", Stats.pct (Stats.values lat) 0.99, "ms");
          ("gen.lag_ms", Stats.pct m.Drive.lags 0.99, "ms");
          ("gen.cpu_frac", m.Drive.cpu_s /. m.Drive.wall_s, "ratio");
          ("host.ref_ms", host_ref_ms (), "ms");
          ( "host.contended_frac",
            float_of_int (fst contended) /. float_of_int (max 1 (snd contended)),
            "ratio" );
          ("trace.spans", float_of_int r.Replica.spans_written, "count");
        ]
    in
    List.iter prerr_endline e.tally.Drive.errors;
    {
      metrics;
      attempted = e.tally.Drive.attempted + r.Replica.statements;
      failed = e.tally.Drive.failed + r.Replica.failed;
    }
  end
  else begin
    let e =
      end_to_end w ~exe ~seed ~seconds ~with_loop:false ~spawns:(spawns_before, spawns_after)
    in
    List.iter prerr_endline e.tally.Drive.errors;
    { metrics = e2e_metrics w e; attempted = e.tally.Drive.attempted; failed = e.tally.Drive.failed }
  end

let json_of_run r =
  let metric (n, v, u) =
    if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and serverd = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point_lookup | audited_writes");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--serverd", Arg.Set_string serverd, "PATH serverd executable");
      ("--out", Arg.Set_string out, "DIR scratch directory for sockets, logs and WALs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gen.exe --workload NAME --seed N --seconds S --trace 0|1 --serverd PATH --out DIR";
  let w =
    match of_string !workload with
    | Some w -> w
    | None ->
      prerr_endline ("gen: unknown workload " ^ !workload);
      exit 2
  in
  if !serverd = "" || !out = "" then begin
    prerr_endline "gen: --serverd and --out are required";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_and_exit _ =
    Proc.stop_all ();
    exit 1
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_and_exit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_and_exit);
  (* A run must end within 180 s: give up, and say where, well before. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Printf.eprintf "gen: no result after %d s (in %s)\n%!" watchdog_s !phase;
         stop_and_exit 0));
  ignore (Unix.alarm watchdog_s);
  at_exit Proc.stop_all;
  let exe =
    if Filename.is_relative !serverd then Filename.concat (Sys.getcwd ()) !serverd
    else !serverd
  in
  let out = if Filename.is_relative !out then Filename.concat (Sys.getcwd ()) !out else !out in
  let dir = Filename.concat out (name w) in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.chdir dir;
  match run w ~exe ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out with
  | r ->
    Array.iter
      (fun f -> if Filename.check_suffix f ".wal" then Sys.remove f)
      (Sys.readdir ".");
    print_endline (json_of_run r)
  | exception e ->
    Proc.stop_all ();
    prerr_endline ("gen: " ^ Printexc.to_string e);
    exit 1
