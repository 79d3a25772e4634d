(* Crash-recovery smoke test for the durable audit log.

   Exercises the WAL the way a real failure would, from a separate
   process, and checks the two recovery guarantees:

     1. No intact record is ever lost: after any simulated or real crash,
        reopening the log recovers exactly the records that were synced
        before the failure.
     2. A torn tail never poisons the log: recovery truncates it, and the
        log accepts appends again.

   Scenarios:
     - torn tail: a simulated crash-before-fsync leaves a half-written
       frame; recovery must keep the N synced records and truncate the rest
     - corruption: a bit flipped in a synced record's payload; recovery
       must keep the prefix before it, flag corruption, and truncate
     - real kill (POSIX fork): a child appends/syncs in a tight loop and
       is SIGKILLed mid-stream; every record the parent finds must be
       intact and the count must be within the child's progress
     - group commit: a child runs the WAL group-commit writer with four
       submitting threads, durably acking each submit that returned; the
       parent SIGKILLs it cold (landing anywhere, including between a
       batch's append and its fsync) and checks that every acked record
       was actually durable — group commit must not weaken the
       evidence-before-results invariant
     - rotation: a child appends into a segmented WAL with a tiny
       segment threshold (rotating every handful of records) and is
       SIGKILLed cold — frequently mid-rotation, between the seal fsync,
       the manifest checkpoint and the successor's creation. Recovery
       must keep every acked record, stay bounded (manifest + tail scan
       only, never the sealed segments), and accept appends again.
     - preallocation: a child appends, fsyncs and acks records and is
       SIGKILLed once it is past the first 64 KiB chunk, so it dies
       partway into a zero-filled one.
       The killed log must keep every acked record and its padding, read
       as padding (not torn, not corrupt); reopening must truncate the
       padding and leave [prealloc.wal] clean for walcheck.

   Exit status 0 when every scenario holds, 1 otherwise. Usage:
     crashcheck [scratch-dir] [scenario...]
   with scenarios from: torn corrupt kill group rotate prealloc (default:
   all). *)

let scenario_names = [ "torn"; "corrupt"; "kill"; "group"; "rotate"; "prealloc" ]

let scratch, selected =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> ("_crash", scenario_names)
  | first :: rest ->
    if List.mem first scenario_names then ("_crash", first :: rest)
    else (first, if rest = [] then scenario_names else rest)

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   - %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL - %s\n" name
  end

let fresh_path name =
  let p = Filename.concat scratch name in
  if Sys.file_exists p then Sys.remove p;
  p

let note i = Audit_log.Wal.Note (Printf.sprintf "record-%04d" i)

let write_n path n =
  let w, _ = Audit_log.Wal.open_ path in
  for i = 1 to n do
    Audit_log.Wal.append w (note i)
  done;
  Audit_log.Wal.sync w;
  Audit_log.Wal.close w

(* ------------------------------------------------------------------ *)
(* Scenario 1: simulated crash before fsync leaves a torn tail         *)
(* ------------------------------------------------------------------ *)

let torn_tail () =
  let path = fresh_path "torn.wal" in
  let n = 25 in
  write_n path n;
  let kit = Engine_core.Faultkit.create () in
  Engine_core.Faultkit.arm kit
    [
      Engine_core.Faultkit.Log_io
        { at = 1; fault = Engine_core.Faultkit.Crash_before_sync };
    ];
  let w, r0 = Audit_log.Wal.open_ ~faults:kit path in
  check "torn: clean reopen sees all synced records"
    (r0.Audit_log.Wal.valid_records = n && r0.Audit_log.Wal.truncated_bytes = 0);
  (match Audit_log.Wal.append w (note (n + 1)) with
  | () -> check "torn: simulated crash raised" false
  | exception Engine_core.Engine_error.Error (Engine_core.Engine_error.Log_io _)
    ->
    check "torn: simulated crash raised" true);
  check "torn: handle is dead after crash" (not (Audit_log.Wal.is_open w));
  let records, r = Audit_log.Wal.read_all path in
  check "torn: recovery keeps every synced record"
    (r.Audit_log.Wal.valid_records = n && List.length records = n);
  check "torn: recovery truncates the torn tail"
    (r.Audit_log.Wal.truncated_bytes > 0);
  check "torn: a short tail is not flagged as corruption"
    (not r.Audit_log.Wal.corrupt);
  (* The log must be usable again after recovery. *)
  let w2, r2 = Audit_log.Wal.open_ path in
  Audit_log.Wal.append w2 (note (n + 1));
  Audit_log.Wal.sync w2;
  Audit_log.Wal.close w2;
  let records2, _ = Audit_log.Wal.read_all path in
  check "torn: log accepts appends after recovery"
    (r2.Audit_log.Wal.valid_records = n && List.length records2 = n + 1)

(* ------------------------------------------------------------------ *)
(* Scenario 2: flipped byte in a synced record's payload               *)
(* ------------------------------------------------------------------ *)

let corruption () =
  let path = fresh_path "corrupt.wal" in
  let n = 25 in
  write_n path n;
  (* Flip one byte ~60% into the file: inside some record's payload. *)
  let size = (Unix.stat path).Unix.st_size in
  let pos = size * 6 / 10 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let records, r = Audit_log.Wal.read_all path in
  check "corrupt: checksum failure detected" r.Audit_log.Wal.corrupt;
  check "corrupt: prefix before the flip survives"
    (r.Audit_log.Wal.valid_records > 0
    && r.Audit_log.Wal.valid_records < n
    && List.length records = r.Audit_log.Wal.valid_records);
  check "corrupt: tail after the flip is dropped"
    (r.Audit_log.Wal.truncated_bytes > 0);
  (* Recovery-on-open truncates; the log must then verify clean. *)
  let w, _ = Audit_log.Wal.open_ path in
  Audit_log.Wal.close w;
  let _, r2 = Audit_log.Wal.read_all path in
  check "corrupt: open-time recovery heals the log"
    ((not r2.Audit_log.Wal.corrupt)
    && r2.Audit_log.Wal.truncated_bytes = 0
    && r2.Audit_log.Wal.valid_records = r.Audit_log.Wal.valid_records)

(* ------------------------------------------------------------------ *)
(* Scenario 3: SIGKILL a child that is appending full-tilt             *)
(* ------------------------------------------------------------------ *)

let real_kill () =
  let path = fresh_path "killed.wal" in
  let total = 5000 in
  match Unix.fork () with
  | 0 ->
    (* Child: append and fsync every record, then idle so the parent's
       kill always lands (possibly mid-write on a slow run). *)
    let w, _ = Audit_log.Wal.open_ path in
    for i = 1 to total do
      Audit_log.Wal.append w (note i);
      Audit_log.Wal.sync w
    done;
    Unix.sleep 30;
    exit 0
  | pid ->
    (* Give the child time to write some records, then kill it cold. *)
    Unix.sleepf 0.25;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    let records, r = Audit_log.Wal.read_all path in
    check "kill: every recovered record is intact"
      (not r.Audit_log.Wal.corrupt);
    check "kill: child made progress before dying"
      (r.Audit_log.Wal.valid_records > 0);
    check "kill: record payloads decode in order"
      (List.for_all2
         (fun rec_ i ->
           match rec_ with
           | Audit_log.Wal.Note s -> s = Printf.sprintf "record-%04d" i
           | _ -> false)
         records
         (List.init (List.length records) (fun i -> i + 1)));
    Printf.printf "# kill: recovered %d records, truncated %d bytes\n"
      r.Audit_log.Wal.valid_records r.Audit_log.Wal.truncated_bytes

(* ------------------------------------------------------------------ *)
(* Scenario 4: SIGKILL a group-commit writer under concurrent submits  *)
(* ------------------------------------------------------------------ *)

(* Lines of [ack] the child finished writing: the kill may have torn the
   last one. *)
let read_acks ack =
  if not (Sys.file_exists ack) then []
  else
    let content = In_channel.with_open_bin ack In_channel.input_all in
    match String.rindex_opt content '\n' with
    | Some i -> String.split_on_char '\n' (String.sub content 0 i)
    | None -> []

(* The invariant under test: [Group.submit] returning means the caller's
   records are durable. The child acks every returned submit to a side
   file (write + fsync, in that order), so after a cold kill the ack file
   is a lower bound on what must be recoverable from the WAL — even when
   the kill lands inside a flush, between the batch's append and its
   fsync. *)
let group_commit () =
  let path = fresh_path "group.wal" in
  let ack = fresh_path "group.ack" in
  let workers = 4 in
  match Unix.fork () with
  | 0 ->
    let w, _ = Audit_log.Wal.open_ path in
    let g = Audit_log.Wal.Group.create w in
    let afd =
      Unix.openfile ack [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let amu = Mutex.create () in
    let worker tid =
      let k = ref 0 in
      while true do
        incr k;
        let token = Printf.sprintf "g%d-%06d" tid !k in
        Audit_log.Wal.Group.submit g [ Audit_log.Wal.Note token ];
        (* submit returned → the record is durable; ack it durably too *)
        Mutex.lock amu;
        let line = token ^ "\n" in
        ignore (Unix.write_substring afd line 0 (String.length line));
        Unix.fsync afd;
        Mutex.unlock amu
      done
    in
    let ths = List.init workers (fun i -> Thread.create worker (i + 1)) in
    List.iter Thread.join ths;
    exit 0
  | pid ->
    Unix.sleepf 0.4;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    let records, r = Audit_log.Wal.read_all path in
    check "group: no corruption after SIGKILL" (not r.Audit_log.Wal.corrupt);
    let durable = Hashtbl.create 1024 in
    List.iter
      (function
        | Audit_log.Wal.Note s -> Hashtbl.replace durable s ()
        | _ -> ())
      records;
    let acked = read_acks ack in
    check "group: child made progress before dying" (acked <> []);
    let missing =
      List.filter (fun t -> not (Hashtbl.mem durable t)) acked
    in
    if missing <> [] then
      List.iter (Printf.printf "# group: acked but not durable: %s\n") missing;
    check "group: every acked submit is durable in the WAL" (missing = []);
    Printf.printf "# group: %d records recovered, %d acked, truncated %d bytes\n"
      r.Audit_log.Wal.valid_records (List.length acked)
      r.Audit_log.Wal.truncated_bytes;
    (* Normal recovery applies: reopen, append, sync. *)
    let w2, _ = Audit_log.Wal.open_ path in
    Audit_log.Wal.append w2 (note 1);
    Audit_log.Wal.sync w2;
    Audit_log.Wal.close w2;
    let _, r2 = Audit_log.Wal.read_all path in
    check "group: log accepts appends after recovery"
      ((not r2.Audit_log.Wal.corrupt) && r2.Audit_log.Wal.truncated_bytes = 0)

(* ------------------------------------------------------------------ *)
(* Scenario 5: SIGKILL during segment rotation                         *)
(* ------------------------------------------------------------------ *)

(* With a ~0.5 KiB threshold the child rotates every handful of records,
   so a cold kill lands inside rotation's window (seal fsync → manifest
   checkpoint → successor creation) with high probability. Acks are the
   durable lower bound, exactly as in the group scenario. *)
let rotation_kill () =
  let path = fresh_path "rotate.wal" in
  (* Clear any segment/manifest debris from a previous run. *)
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"rotate" f then
        try Sys.remove (Filename.concat scratch f) with _ -> ())
    (try Sys.readdir scratch with _ -> [||]);
  let ack = fresh_path "rotate.ack" in
  match Unix.fork () with
  | 0 ->
    let w, _ = Audit_log.Wal.open_ ~max_segment_size:512 path in
    let afd =
      Unix.openfile ack [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let i = ref 0 in
    while true do
      incr i;
      Audit_log.Wal.append w (note !i);
      Audit_log.Wal.sync w;
      let line = Printf.sprintf "record-%04d\n" !i in
      ignore (Unix.write_substring afd line 0 (String.length line));
      Unix.fsync afd
    done;
    exit 0
  | pid ->
    Unix.sleepf 0.3;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    let records, r = Audit_log.Wal.read_all path in
    check "rotate: no corruption after SIGKILL" (not r.Audit_log.Wal.corrupt);
    check "rotate: the child actually rotated" (r.Audit_log.Wal.segments > 1);
    let durable = Hashtbl.create 1024 in
    List.iter
      (function
        | Audit_log.Wal.Note s -> Hashtbl.replace durable s ()
        | _ -> ())
      records;
    let acked = read_acks ack in
    check "rotate: child made progress before dying" (acked <> []);
    let missing = List.filter (fun t -> not (Hashtbl.mem durable t)) acked in
    if missing <> [] then
      List.iter (Printf.printf "# rotate: acked but not durable: %s\n") missing;
    check "rotate: every acked record survives the kill" (missing = []);
    (* Bounded recovery: reopening scans the manifest and tail segment
       only — sealed segments are never re-read. *)
    let w2, r2 = Audit_log.Wal.open_ path in
    check "rotate: reopen selects segmented mode via the manifest"
      (Audit_log.Wal.is_segmented w2);
    let total_bytes = ref 0 in
    for s = 0 to r2.Audit_log.Wal.segments - 1 do
      let p = Audit_log.Wal.segment_path path s in
      if Sys.file_exists p then
        total_bytes := !total_bytes + (Unix.stat p).Unix.st_size
    done;
    check "rotate: recovery is bounded to the tail segment"
      (r2.Audit_log.Wal.segments > 1
      && r2.Audit_log.Wal.scanned_bytes < !total_bytes);
    Audit_log.Wal.append w2 (Audit_log.Wal.Note "post-recovery");
    Audit_log.Wal.sync w2;
    Audit_log.Wal.close w2;
    let records3, r3 = Audit_log.Wal.read_all path in
    check "rotate: log accepts appends after recovery"
      ((not r3.Audit_log.Wal.corrupt)
      && List.length records3 = List.length records + 1);
    Printf.printf
      "# rotate: %d records over %d segments, scanned %d of %d bytes\n"
      r3.Audit_log.Wal.valid_records r3.Audit_log.Wal.segments
      r2.Audit_log.Wal.scanned_bytes !total_bytes

(* ------------------------------------------------------------------ *)
(* Scenario 6: SIGKILL partway into a preallocated chunk               *)
(* ------------------------------------------------------------------ *)

let prealloc_kill () =
  let path = fresh_path "prealloc.wal" in
  let ack = fresh_path "prealloc.ack" in
  (* 8 + 5 + 188 = 201-byte frames: 400 of them fill more than one
     64 KiB chunk. *)
  let token i = Printf.sprintf "p-%06d" i in
  let payload i = token i ^ String.make 180 '.' in
  let past_first_chunk = 400 in
  match Unix.fork () with
  | 0 ->
    let w, _ = Audit_log.Wal.open_ path in
    let afd =
      Unix.openfile ack [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let i = ref 0 in
    while true do
      incr i;
      Audit_log.Wal.append w (Audit_log.Wal.Note (payload !i));
      Audit_log.Wal.sync w;
      let line = token !i ^ "\n" in
      ignore (Unix.write_substring afd line 0 (String.length line));
      Unix.fsync afd
    done;
    exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 20.0 in
    while
      List.length (read_acks ack) < past_first_chunk
      && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.005
    done;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    let acked = read_acks ack in
    check "prealloc: child wrote past the first chunk"
      (List.length acked >= past_first_chunk);
    let size = (Unix.stat path).Unix.st_size in
    let records, r = Audit_log.Wal.read_all path in
    check "prealloc: no corruption after SIGKILL" (not r.Audit_log.Wal.corrupt);
    check "prealloc: the killed log keeps its padding"
      (r.Audit_log.Wal.padding_bytes > 0
      && size
         = r.Audit_log.Wal.valid_bytes + r.Audit_log.Wal.truncated_bytes
           + r.Audit_log.Wal.padding_bytes);
    let durable = Hashtbl.create 1024 in
    List.iter
      (function
        | Audit_log.Wal.Note s when String.length s >= 8 ->
          Hashtbl.replace durable (String.sub s 0 8) ()
        | _ -> ())
      records;
    let missing = List.filter (fun t -> not (Hashtbl.mem durable t)) acked in
    List.iter (Printf.printf "# prealloc: acked but not durable: %s\n") missing;
    check "prealloc: every acked record survives the kill" (missing = []);
    let w, r2 = Audit_log.Wal.open_ path in
    Audit_log.Wal.close w;
    let _, r3 = Audit_log.Wal.read_all path in
    check "prealloc: reopening truncates the padding"
      (r2.Audit_log.Wal.valid_records = List.length records
      && r3.Audit_log.Wal.padding_bytes = 0
      && (Unix.stat path).Unix.st_size = r.Audit_log.Wal.valid_bytes);
    check "prealloc: the recovered log is clean"
      ((not r3.Audit_log.Wal.corrupt) && r3.Audit_log.Wal.truncated_bytes = 0);
    Printf.printf
      "# prealloc: %d records, %d acked, %d padding bytes dropped of %d\n"
      (List.length records) (List.length acked) r.Audit_log.Wal.padding_bytes size

let needs_fork f name =
  try f ()
  with Unix.Unix_error _ ->
    (* fork unavailable (restricted sandbox): the simulated scenarios
       already cover recovery *)
    Printf.printf "# %s: skipped (fork unavailable)\n" name

let () =
  if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
  List.iter
    (function
      | "torn" -> torn_tail ()
      | "corrupt" -> corruption ()
      | "kill" -> needs_fork real_kill "kill"
      | "group" -> needs_fork group_commit "group"
      | "rotate" -> needs_fork rotation_kill "rotate"
      | "prealloc" -> needs_fork prealloc_kill "prealloc"
      | s ->
        incr failures;
        Printf.printf "FAIL - unknown scenario %s\n" s)
    selected;
  if !failures = 0 then print_endline "crashcheck: all scenarios passed"
  else Printf.printf "crashcheck: %d check(s) FAILED\n" !failures;
  exit (if !failures = 0 then 0 else 1)
