(** Durable, append-only audit log (write-ahead style).

    File layout: an 8-byte magic ["AUDWAL01"] followed by framed records.
    Each frame is [u32 length | u32 crc32(payload) | payload], integers
    big-endian; the payload is a tag-based binary encoding of {!record}.

    Recovery on open scans the file front to back: every frame whose
    length and checksum verify is intact; the first short or corrupt frame
    ends the valid prefix, and the file is truncated there (a torn tail is
    the expected shape after a crash mid-write — later bytes are
    unverifiable and must not masquerade as audit evidence). Intact
    records are never dropped. The writer preallocates zero bytes past
    its last frame (see {!preallocate}); a zero tail is the end of the
    log, and {!close} truncates it.

    Appends are failure-atomic: the pre-append size is remembered and the
    file is truncated back to it if the write fails midway, so a failed
    append leaves the log exactly as it was. If the heal itself fails the
    handle is marked dead and every later operation raises — the policy
    layer in [Db.Database] then decides fail-closed vs fail-open.

    Fault injection ({!Engine_core.Faultkit.Log_io}) is consulted per
    append: short writes and ENOSPC heal (exercising failure-atomicity),
    [Crash_before_sync] leaves a torn tail and kills the handle
    (exercising recovery).

    {b Segmented mode.} A log opened with [~max_segment_size] (or whose
    manifest already exists on disk) is a sequence of segment files
    [base.NNNN.wal] plus a manifest [base.manifest]. The manifest is
    itself a tiny CRC-framed log of {!record.Checkpoint} records: one per
    {e sealed} segment, appended and fsynced at rotation time, after the
    segment's last byte is durable. Rotation is size-based and happens
    inside {!append}, under whatever serialization the caller already
    provides (the group-commit leader, in the served engine). Recovery is
    {e bounded}: sealed segments are trusted via their checkpoint and
    never rescanned — open-time recovery reads only the manifest and the
    tail segment, so recovery cost is O(max_segment_size) no matter how
    large the audit trail has grown. ENOSPC degrades gracefully: the
    writer first tries to rotate into a fresh segment and retry once;
    if that also fails, the handle is poisoned (fail-closed) or healed
    for a later attempt (fail-open) instead of healing forever. *)

open Engine_core

let magic = "AUDWAL01"
let frame_header_len = 8
let default_segment_size = 4 * 1024 * 1024

(* Segment naming per the on-disk contract: base [audit.wal] yields
   segments [audit.0000.wal], [audit.0001.wal], ... and the manifest
   [audit.wal.manifest]. A base without the .wal suffix gets plain
   numeric suffixes. *)
let segment_path base i =
  if Filename.check_suffix base ".wal" then
    Printf.sprintf "%s.%04d.wal" (Filename.chop_suffix base ".wal") i
  else Printf.sprintf "%s.%04d" base i

let manifest_path base = base ^ ".manifest"

let log_io msg = Engine_error.raise_ (Engine_error.Log_io msg)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, table-driven)                                    *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 (s : string) : int =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

type record =
  | Accessed of {
      session : int;  (** originating session (0 = single-session engine) *)
      seq : int;  (** logical clock of the statement *)
      user : string;
      sql : string;  (** outermost statement text *)
      audit : string;  (** audit expression name *)
      ids : string list;  (** accessed sensitive IDs (rendered values) *)
      complete : bool;
          (** false when flushed on abort/cancellation: the set covers the
              accesses up to the failure point *)
    }
  | Trigger_fired of {
      session : int;
      seq : int;
      trigger : string;
      audit : string;
      timing : string;  (** "AFTER" | "BEFORE RETURN" *)
    }
  | Notify of { session : int; seq : int; msg : string }
  | Note of string  (** engine annotations: alarms, recovery notes *)
  | Checkpoint of { segment : int; records : int; bytes : int }
      (** manifest-only: segment [segment] is sealed, fully fsynced, with
          [records] intact records in [bytes] bytes *)

let record_to_string = function
  | Accessed { session; seq; user; sql; audit; ids; complete } ->
    Printf.sprintf "accessed session=%d seq=%d user=%s audit=%s ids=[%s]%s sql=%S"
      session seq user audit (String.concat "," ids)
      (if complete then "" else " (partial)")
      sql
  | Trigger_fired { session; seq; trigger; audit; timing } ->
    Printf.sprintf "trigger session=%d seq=%d name=%s audit=%s timing=%s"
      session seq trigger audit timing
  | Notify { session; seq; msg } ->
    Printf.sprintf "notify session=%d seq=%d msg=%S" session seq msg
  | Note msg -> Printf.sprintf "note %S" msg
  | Checkpoint { segment; records; bytes } ->
    Printf.sprintf "checkpoint segment=%04d records=%d bytes=%d" segment
      records bytes

let record_session = function
  | Accessed { session; _ } | Trigger_fired { session; _ }
  | Notify { session; _ } ->
    Some session
  | Note _ | Checkpoint _ -> None

(* Binary payload codec. *)

exception Decode_error

let put_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let get_u32 s pos =
  if !pos + 4 > String.length s then raise Decode_error;
  let byte i = Char.code s.[!pos + i] in
  let n = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  pos := !pos + 4;
  n

let get_str s pos =
  let n = get_u32 s pos in
  if !pos + n > String.length s then raise Decode_error;
  let r = String.sub s !pos n in
  pos := !pos + n;
  r

let encode (r : record) : string =
  let b = Buffer.create 64 in
  (match r with
  | Accessed { session; seq; user; sql; audit; ids; complete } ->
    Buffer.add_char b '\001';
    put_u32 b session;
    put_u32 b seq;
    put_str b user;
    put_str b sql;
    put_str b audit;
    put_u32 b (List.length ids);
    List.iter (put_str b) ids;
    Buffer.add_char b (if complete then '\001' else '\000')
  | Trigger_fired { session; seq; trigger; audit; timing } ->
    Buffer.add_char b '\002';
    put_u32 b session;
    put_u32 b seq;
    put_str b trigger;
    put_str b audit;
    put_str b timing
  | Notify { session; seq; msg } ->
    Buffer.add_char b '\003';
    put_u32 b session;
    put_u32 b seq;
    put_str b msg
  | Note msg ->
    Buffer.add_char b '\004';
    put_str b msg
  | Checkpoint { segment; records; bytes } ->
    Buffer.add_char b '\005';
    put_u32 b segment;
    put_u32 b records;
    put_u32 b bytes);
  Buffer.contents b

let decode (payload : string) : record =
  if payload = "" then raise Decode_error;
  let pos = ref 1 in
  match payload.[0] with
  | '\001' ->
    let session = get_u32 payload pos in
    let seq = get_u32 payload pos in
    let user = get_str payload pos in
    let sql = get_str payload pos in
    let audit = get_str payload pos in
    let n = get_u32 payload pos in
    let ids = List.init n (fun _ -> get_str payload pos) in
    if !pos + 1 > String.length payload then raise Decode_error;
    let complete = payload.[!pos] = '\001' in
    Accessed { session; seq; user; sql; audit; ids; complete }
  | '\002' ->
    let session = get_u32 payload pos in
    let seq = get_u32 payload pos in
    let trigger = get_str payload pos in
    let audit = get_str payload pos in
    let timing = get_str payload pos in
    Trigger_fired { session; seq; trigger; audit; timing }
  | '\003' ->
    let session = get_u32 payload pos in
    let seq = get_u32 payload pos in
    let msg = get_str payload pos in
    Notify { session; seq; msg }
  | '\004' -> Note (get_str payload pos)
  | '\005' ->
    let segment = get_u32 payload pos in
    let records = get_u32 payload pos in
    let bytes = get_u32 payload pos in
    Checkpoint { segment; records; bytes }
  | _ -> raise Decode_error

let frame (r : record) : string =
  let payload = encode r in
  let b = Buffer.create (String.length payload + frame_header_len) in
  put_u32 b (String.length payload);
  put_u32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Recovery scan                                                       *)
(* ------------------------------------------------------------------ *)

type recovery = {
  valid_records : int;  (** intact records in the recovered prefix *)
  valid_bytes : int;  (** file size after truncating the torn tail *)
  truncated_bytes : int;  (** torn/corrupt bytes dropped from the tail *)
  padding_bytes : int;
      (** preallocated zero bytes after the last frame: the end of the
          log, neither torn nor corrupt *)
  corrupt : bool;
      (** true when the tail failed its checksum (vs a clean short tail) *)
  segments : int;  (** segment files covered (1 for a single-file log) *)
  tail_segment : int;  (** index of the active (scanned) segment *)
  scanned_bytes : int;
      (** bytes actually read during recovery: the whole file for a
          single-file log, manifest + tail segment only for a segmented
          one — the quantity bounded recovery keeps flat *)
}

let no_recovery =
  {
    valid_records = 0;
    valid_bytes = 0;
    truncated_bytes = 0;
    padding_bytes = 0;
    corrupt = false;
    segments = 1;
    tail_segment = 0;
    scanned_bytes = 0;
  }

(** Scan [contents], returning the intact records and the recovery
    report. Never raises: an unreadable byte ends the valid prefix.

    The writer preallocates zero bytes past its last frame, so a log
    left by a crash ends in zeros. Let [z] be where that zero suffix
    starts. The log ends cleanly at a frame boundary at or past [z] (a
    zero length with only zeros after it is padding, not a frame). A
    frame that fails its checksum is torn, not corrupt, when it ends
    inside the zero suffix before the end of the file: the write stopped
    inside preallocated space ({!preallocate} never lets a frame end
    exactly at the end of the padding). A bit flip in the last frame
    before the padding, in a payload that ends in zero bytes, also reads
    as torn; both end the valid prefix at the same place. The writer
    never frames an empty payload, so a zero length anywhere else is
    corrupt. A tail that is not all zeros keeps the rules of an unpadded
    file, and a corrupt tail counts as truncated, padding and all. *)
let scan (contents : string) : record list * recovery =
  let len = String.length contents in
  if len < String.length magic || String.sub contents 0 (String.length magic) <> magic
  then
    (* Missing or bad magic: nothing trustworthy in this file. *)
    ( [],
      {
        no_recovery with
        valid_bytes = String.length magic;
        truncated_bytes = len;
        corrupt = len > 0;
        scanned_bytes = len;
      } )
  else begin
    let zeros_from =
      let z = ref len in
      while !z > 0 && contents.[!z - 1] = '\000' do
        decr z
      done;
      !z
    in
    let records = ref [] in
    let pos = ref (String.length magic) in
    let corrupt = ref false in
    (try
       while !pos < zeros_from do
         let at = ref !pos in
         if !at + frame_header_len > len then raise Exit;
         let plen = get_u32 contents at in
         let crc = get_u32 contents at in
         if !at + plen > len then raise Exit;
         let payload = String.sub contents !at plen in
         if crc32 payload <> crc then begin
           let ends = !at + plen in
           corrupt := plen = 0 || ends <= zeros_from || ends = len;
           raise Exit
         end;
         (match decode payload with
         | r -> records := r :: !records
         | exception Decode_error ->
           corrupt := true;
           raise Exit);
         pos := !at + plen
       done
     with Exit -> ());
    let data_end = if !corrupt then len else max !pos zeros_from in
    ( List.rev !records,
      {
        no_recovery with
        valid_records = List.length !records;
        valid_bytes = !pos;
        truncated_bytes = data_end - !pos;
        padding_bytes = len - data_end;
        corrupt = !corrupt;
        scanned_bytes = len;
      } )
  end

let read_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Sealed-segment checkpoints from a manifest, oldest first:
   (segment index, records, bytes) triples. *)
let manifest_checkpoints mpath : (int * int * int) list * recovery =
  if not (Sys.file_exists mpath) then ([], no_recovery)
  else
    let records, r = scan (read_file mpath) in
    ( List.filter_map
        (function
          | Checkpoint { segment; records; bytes } ->
            Some (segment, records, bytes)
          | _ -> None)
        records,
      r )

(** Read and validate a log without opening it for append. A segmented
    log (manifest present at [path ^ ".manifest"]) is read in full —
    every sealed segment plus the tail — so offline audits ([walcheck])
    always cover the complete history. Sealed segments were durable
    before their checkpoint: any shortfall there is corruption, whereas
    a short tail segment is the normal post-crash shape. *)
let read_all path : record list * recovery =
  let mpath = manifest_path path in
  if Sys.file_exists mpath then begin
    let cks, mr = manifest_checkpoints mpath in
    let tail_index =
      List.fold_left (fun acc (s, _, _) -> max acc (s + 1)) 0 cks
    in
    let corrupt = ref mr.corrupt in
    let scanned = ref mr.scanned_bytes in
    let read_segment ~sealed (seg, expected) =
      let p = segment_path path seg in
      if not (Sys.file_exists p) then begin
        if sealed then corrupt := true;
        ([], no_recovery)
      end
      else begin
        let records, r = scan (read_file p) in
        scanned := !scanned + r.scanned_bytes;
        if
          sealed
          && (r.corrupt || r.truncated_bytes > 0 || r.valid_records < expected)
        then corrupt := true;
        (records, r)
      end
    in
    let sealed = List.map (fun (s, n, _) -> read_segment ~sealed:true (s, n)) cks in
    let tail_records, tr = read_segment ~sealed:false (tail_index, 0) in
    let records = List.concat_map fst sealed @ tail_records in
    ( records,
      {
        valid_records = List.length records;
        valid_bytes =
          List.fold_left (fun a (_, r) -> a + r.valid_bytes) tr.valid_bytes
            sealed;
        truncated_bytes = tr.truncated_bytes;
        padding_bytes = tr.padding_bytes;
        corrupt = !corrupt || tr.corrupt;
        segments = tail_index + 1;
        tail_segment = tail_index;
        scanned_bytes = !scanned;
      } )
  end
  else if Sys.file_exists path then scan (read_file path)
  else ([], no_recovery)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type policy =
  | Fail_closed
      (** a failed log write withholds the query's results (default:
          preserves the no-false-negatives guarantee) *)
  | Fail_open  (** a failed log write raises an alarm but results flow *)

let policy_to_string = function
  | Fail_closed -> "fail-closed"
  | Fail_open -> "fail-open"

type segmented = {
  max_bytes : int;  (** size-based rotation threshold for a segment *)
  mutable seg_index : int;  (** index of the active segment *)
  mutable seg_records : int;  (** records in the active segment *)
  mutable sealed_records : int;  (** records in sealed segments *)
  mutable manifest : Unix.file_descr option;
  mutable rotations : int;  (** rotations performed through this handle *)
}

type t = {
  path : string;  (** base path; segments and manifest derive from it *)
  mutable fd : Unix.file_descr option;  (** [None] = dead handle *)
  mutable policy : policy;
  mutable size : int;
      (** bytes of validated + successfully appended data in the active
          file (the only segment of a single-file log) *)
  mutable allocated : int;
      (** length of the active file: [size] plus the preallocated zero
          bytes after it *)
  mutable appended : int;  (** records appended through this handle *)
  mutable syncs : int;  (** fsyncs issued through this handle *)
  mutable dirty : bool;  (** appended since the last fsync *)
  faults : Faultkit.t option;
  seg : segmented option;  (** [None] = single-file (legacy) layout *)
}

let path t = t.path
let policy t = t.policy
let set_policy t p = t.policy <- p
let appended t = t.appended
let syncs t = t.syncs
let is_open t = t.fd <> None
let is_segmented t = t.seg <> None
let segments t = match t.seg with Some s -> s.seg_index + 1 | None -> 1
let rotations t = match t.seg with Some s -> s.rotations | None -> 0
let tail_segment t = match t.seg with Some s -> s.seg_index | None -> 0

let fd_exn t =
  match t.fd with
  | Some fd -> fd
  | None -> log_io (Printf.sprintf "audit log %s: handle is dead" t.path)

(* Open (create or recover) one plain log file positioned for append:
   intact records kept, torn tail truncated, magic laid down when fresh. *)
let open_file path : Unix.file_descr * recovery =
  let exists = Sys.file_exists path in
  let contents = if exists then read_file path else "" in
  let recovery =
    if contents = "" then { no_recovery with valid_bytes = String.length magic }
    else snd (scan contents)
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  if (not exists) || contents = "" then begin
    let n = Unix.write_substring fd magic 0 (String.length magic) in
    if n <> String.length magic then failwith "short write of magic"
  end
  else Unix.ftruncate fd recovery.valid_bytes;
  ignore (Unix.lseek fd recovery.valid_bytes Unix.SEEK_SET);
  Unix.fsync fd;
  (fd, recovery)

(** Open (creating if needed) with recovery: intact records are kept, the
    torn tail is truncated, and the handle is positioned for append.

    With [~max_segment_size] (or when [path ^ ".manifest"] already
    exists) the log is segmented and recovery is {e bounded}: sealed
    segments are trusted through their fsynced manifest checkpoints, so
    only the manifest and the tail segment are read — O(segment size),
    however large the trail. A crash during rotation leaves either an
    unsealed full segment (it becomes the scanned tail) or a sealed
    segment with no successor file yet (a fresh tail is created); both
    recover without scanning history. *)
let open_ ?(policy = Fail_closed) ?faults ?max_segment_size path : t * recovery
    =
  let mpath = manifest_path path in
  let segmented = max_segment_size <> None || Sys.file_exists mpath in
  match
    if not segmented then begin
      let fd, recovery = open_file path in
      (fd, recovery.valid_bytes, recovery, None)
    end
    else begin
      let mcontent = if Sys.file_exists mpath then read_file mpath else "" in
      let cks, mr =
        if mcontent = "" then
          ([], { no_recovery with valid_bytes = String.length magic })
        else
          let records, r = scan mcontent in
          ( List.filter_map
              (function
                | Checkpoint { segment; records; bytes } ->
                  Some (segment, records, bytes)
                | _ -> None)
              records,
            r )
      in
      let mfd = Unix.openfile mpath [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      if mcontent = "" then begin
        let n = Unix.write_substring mfd magic 0 (String.length magic) in
        if n <> String.length magic then failwith "short write of magic"
      end
      else Unix.ftruncate mfd mr.valid_bytes;
      ignore (Unix.lseek mfd mr.valid_bytes Unix.SEEK_SET);
      Unix.fsync mfd;
      let tail_index =
        List.fold_left (fun acc (s, _, _) -> max acc (s + 1)) 0 cks
      in
      let sealed_records =
        List.fold_left (fun acc (_, n, _) -> acc + n) 0 cks
      in
      let sealed_bytes = List.fold_left (fun acc (_, _, b) -> acc + b) 0 cks in
      let fd, tr = open_file (segment_path path tail_index) in
      let seg =
        {
          max_bytes =
            Option.value max_segment_size ~default:default_segment_size;
          seg_index = tail_index;
          seg_records = tr.valid_records;
          sealed_records;
          manifest = Some mfd;
          rotations = 0;
        }
      in
      ( fd,
        tr.valid_bytes,
        {
          valid_records = sealed_records + tr.valid_records;
          valid_bytes = sealed_bytes + tr.valid_bytes;
          truncated_bytes = tr.truncated_bytes;
          padding_bytes = tr.padding_bytes;
          corrupt = tr.corrupt || mr.corrupt;
          segments = tail_index + 1;
          tail_segment = tail_index;
          scanned_bytes = String.length mcontent + tr.scanned_bytes;
        },
        Some seg )
    end
  with
  | fd, active_size, recovery, seg ->
    ( {
        path;
        fd = Some fd;
        policy;
        size = active_size;
        allocated = active_size;
        appended = 0;
        syncs = 0;
        dirty = false;
        faults;
        seg;
      },
      recovery )
  | exception (Unix.Unix_error _ | Failure _ | Sys_error _) ->
    log_io (Printf.sprintf "cannot open audit log %s" path)

let write_all fd bytes off len =
  let off = ref off and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write_substring fd bytes !off !remaining in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", ""));
    off := !off + n;
    remaining := !remaining - n
  done

(* Preallocation. An append that grows the file makes the fsync after it
   commit the new size to the filesystem journal as well as the data;
   overwriting blocks that already hold zeros flushes the data only. So
   when a frame would pass the allocated end, the active file grows by
   [prealloc_chunk] zero bytes (real writes, not a hole: a hole or an
   unwritten extent needs the same metadata commit on first write), and
   appends then overwrite them. The extension is written from one page of
   zeros, never from a chunk-sized buffer. Readers treat the zero tail as
   the end of the log ({!scan}); {!close}, {!heal} and rotation truncate
   it, so a cleanly closed log holds exactly its frames. *)
let prealloc_chunk = 64 * 1024
let zero_page = String.make 4096 '\000'

(* Make room for a frame ending at [need]. Either the frame ends strictly
   inside the allocated space, so at least one zero byte follows it, or
   the file holds no padding when the frame is written, so a frame torn
   by a crash is cut at the end of the file: {!scan} tells the two apart
   from a corrupt frame by that. The extension is whole chunks and never
   passes a segment's rotation threshold; when it cannot fit, or fails
   (it is undone), the padding is dropped and the frame is appended at
   the end of the file as without preallocation. *)
let preallocate t fd need =
  if need >= t.allocated then begin
    let limit = match t.seg with Some s -> s.max_bytes | None -> max_int in
    let chunks = 1 + ((need - t.allocated) / prealloc_chunk) in
    let target = min limit (t.allocated + (chunks * prealloc_chunk)) in
    match
      if target <= need then raise Exit;
      ignore (Unix.lseek fd t.allocated Unix.SEEK_SET);
      let pos = ref t.allocated in
      while !pos < target do
        let n = min (String.length zero_page) (target - !pos) in
        pos := !pos + Unix.write_substring fd zero_page 0 n
      done;
      ignore (Unix.lseek fd t.size Unix.SEEK_SET)
    with
    | () -> t.allocated <- target
    | exception Exit when t.allocated = t.size -> ()
    | exception (Exit | Unix.Unix_error _) -> (
      try
        Unix.ftruncate fd t.size;
        t.allocated <- t.size;
        ignore (Unix.lseek fd t.size Unix.SEEK_SET)
      with Unix.Unix_error _ -> ())
  end

(* Write frames at the end of the data. *)
let write_frame t fd bytes len =
  preallocate t fd (t.size + len);
  write_all fd bytes 0 len

(* Account for [records] frames, [len] bytes, that [write_frame] wrote. *)
let wrote t ~records len =
  t.size <- t.size + len;
  t.allocated <- max t.allocated t.size;
  t.appended <- t.appended + records;
  t.dirty <- true;
  match t.seg with
  | Some s -> s.seg_records <- s.seg_records + records
  | None -> ()

(** Truncate back to the pre-append size, padding included; on failure
    the handle dies. *)
let heal t =
  match t.fd with
  | None -> ()
  | Some fd -> (
    try
      Unix.ftruncate fd t.size;
      t.allocated <- t.size;
      ignore (Unix.lseek fd t.size Unix.SEEK_SET)
    with Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None)

(** Drop the handle as a crash would: nothing is truncated or synced, so
    padding and any torn frame stay on disk for recovery. *)
let kill t =
  (match t.seg with
  | Some ({ manifest = Some mfd; _ } as s) ->
    (try Unix.close mfd with Unix.Unix_error _ -> ());
    s.manifest <- None
  | _ -> ());
  match t.fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.fd <- None

(** Seal the active segment and open the next one. Ordering is the
    durability contract bounded recovery relies on: (1) fsync the active
    segment so every byte the checkpoint will vouch for is stable,
    (2) append + fsync the {!record.Checkpoint} to the manifest,
    (3) create the successor segment (magic + fsync). A crash between
    (1) and (2) leaves an unsealed full segment — it is simply the tail
    at recovery; a crash between (2) and (3) leaves a sealed segment with
    no successor — recovery creates a fresh tail. Raises on I/O failure
    (Unix errors propagate; the caller decides kill vs heal). *)
let rotate t =
  match t.seg with
  | None -> ()
  | Some s ->
    let fd = fd_exn t in
    let mfd =
      match s.manifest with
      | Some mfd -> mfd
      | None ->
        log_io (Printf.sprintf "audit log %s: manifest handle is dead" t.path)
    in
    (* A sealed segment holds exactly its frames: drop the padding before
       the fsync that the checkpoint vouches for. *)
    if t.allocated > t.size then begin
      Unix.ftruncate fd t.size;
      t.allocated <- t.size;
      t.dirty <- true
    end;
    if t.dirty then begin
      Unix.fsync fd;
      t.dirty <- false;
      t.syncs <- t.syncs + 1
    end;
    let ck =
      frame
        (Checkpoint
           { segment = s.seg_index; records = s.seg_records; bytes = t.size })
    in
    write_all mfd ck 0 (String.length ck);
    Unix.fsync mfd;
    let next = s.seg_index + 1 in
    let nfd =
      Unix.openfile (segment_path t.path next)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    in
    write_all nfd magic 0 (String.length magic);
    Unix.fsync nfd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.fd <- Some nfd;
    s.sealed_records <- s.sealed_records + s.seg_records;
    s.seg_index <- next;
    s.seg_records <- 0;
    s.rotations <- s.rotations + 1;
    t.size <- String.length magic;
    t.allocated <- t.size

(* ENOSPC on a segmented log: rotate into a fresh segment and retry the
   frames once, instead of healing forever against a full segment. If the
   rotation or the retried write also fails, stop degrading gracefully —
   fail-closed poisons the handle (every later operation raises, queries
   are withheld), fail-open heals it for a later attempt. Single-file
   logs keep the legacy heal-and-raise behaviour (handled by the caller
   before reaching here). *)
let enospc_retry t ~records bytes len msg =
  match
    rotate t;
    write_frame t (fd_exn t) bytes len
  with
  | () -> wrote t ~records len
  | exception (Unix.Unix_error _ | Engine_error.Error _ | Failure _) ->
    (match t.policy with Fail_closed -> kill t | Fail_open -> heal t);
    log_io
      (Printf.sprintf "audit log %s: %s; rotation retry failed (%s)" t.path
         msg
         (policy_to_string t.policy))

(* One write of [records] whole frames, then the size-based rotation when
   the last of them reached the segment threshold. *)
let write_run t ~records bytes =
  let len = String.length bytes in
  match write_frame t (fd_exn t) bytes len with
  | () -> (
    wrote t ~records len;
    match t.seg with
    | None -> ()
    | Some s ->
      if t.size >= s.max_bytes then (
        (* Size-based rotation. The records above are already written;
           a failed rotation loses nothing durable. Fail-closed still
           poisons (the next checkpoint can no longer be trusted to
           happen); fail-open stays on the oversized segment and will
           retry rotating at the next append. *)
        match rotate t with
        | () -> ()
        | exception (Unix.Unix_error _ | Engine_error.Error _ | Failure _)
          -> (
          match t.policy with
          | Fail_closed ->
            kill t;
            log_io
              (Printf.sprintf "audit log %s: segment rotation failed" t.path)
          | Fail_open -> ())))
  | exception Unix.Unix_error (e, _, _) ->
    heal t;
    if e = Unix.ENOSPC && t.seg <> None then
      enospc_retry t ~records bytes len "write failed (ENOSPC)"
    else
      log_io
        (Printf.sprintf "audit log %s: write failed (%s)" t.path
           (Unix.error_message e))

(* The injected fault of one record's frame. *)
let inject t bytes = function
  | Faultkit.Short_write n ->
    (* Write a torn prefix, then heal — exercising failure-atomicity. *)
    let len = String.length bytes in
    (try write_all (fd_exn t) bytes 0 (min n len) with Unix.Unix_error _ -> ());
    heal t;
    log_io
      (Printf.sprintf "audit log %s: injected short write (%d/%d bytes)"
         t.path (min n len) len)
  | Faultkit.Enospc ->
    if t.seg = None then
      log_io (Printf.sprintf "audit log %s: injected ENOSPC" t.path)
    else
      enospc_retry t ~records:1 bytes (String.length bytes) "injected ENOSPC"
  | Faultkit.Crash_before_sync ->
    (* Half a frame hits the disk, then the "process" dies: the torn tail
       and the padding after it stay for recovery to truncate, and the
       handle is unusable. *)
    let fd = fd_exn t and len = String.length bytes in
    (try
       preallocate t fd (t.size + len);
       write_all fd bytes 0 (max 1 (len / 2))
     with Unix.Unix_error _ -> ());
    kill t;
    log_io
      (Printf.sprintf "audit log %s: injected crash before fsync" t.path)

(** Append records in order (no fsync — call {!sync} before releasing
    results). The frames go out in one write, split only where a record
    reaches the segment threshold (rotation follows it) and before a
    record the fault kit hits, which it consults once per record. Each
    write is failure-atomic: on error the log is either exactly as
    before that write or (after a simulated crash) carries a torn tail
    that {!open_} will truncate. Raises [Engine_error.Error (Log_io _)]
    on any failure. *)
let append_all t (records : record list) : unit =
  let run = Buffer.create 256 in
  let flush n =
    if n > 0 then begin
      let bytes = Buffer.contents run in
      Buffer.clear run;
      write_run t ~records:n bytes
    end
  in
  let threshold = match t.seg with Some s -> s.max_bytes | None -> max_int in
  let rec go n = function
    | [] -> flush n
    | r :: rest -> (
      ignore (fd_exn t);
      let bytes = frame r in
      match t.faults with
      | Some k -> (
        match Faultkit.on_log_append k with
        | Some fault ->
          flush n;
          inject t bytes fault;
          go 0 rest
        | None -> add n bytes rest)
      | None -> add n bytes rest)
  and add n bytes rest =
    Buffer.add_string run bytes;
    if t.size + Buffer.length run >= threshold then begin
      flush (n + 1);
      go 0 rest
    end
    else go (n + 1) rest
  in
  go 0 records

let append t r = append_all t [ r ]

(** Flush appended records to stable storage (no-op when clean). *)
let sync t =
  if t.dirty then
    match t.fd with
    | None -> log_io (Printf.sprintf "audit log %s: handle is dead" t.path)
    | Some fd -> (
      match Unix.fsync fd with
      | () ->
        t.dirty <- false;
        t.syncs <- t.syncs + 1
      | exception Unix.Unix_error (e, _, _) ->
        log_io
          (Printf.sprintf "audit log %s: fsync failed (%s)" t.path
             (Unix.error_message e)))

(** Close cleanly: the padding is truncated first, so the file holds
    exactly its frames. A failed truncation leaves padding that the next
    {!open_} drops. *)
let close t =
  (match t.fd with
  | Some fd when t.allocated > t.size -> (
    try Unix.ftruncate fd t.size with Unix.Unix_error _ -> ())
  | _ -> ());
  kill t

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

type wal = t
(** alias usable inside {!Group}, where [t] names the group writer *)

(** Shared writer that batches many sessions' records into one fsync.

    Leader/follower group commit: a session's {!Group.submit} enqueues its
    records, then either becomes the {e leader} — draining the whole queue
    through one {!append_all} and issuing a single {!sync} for everyone in the
    batch — or waits until a leader's fsync covers its records. While the
    leader is inside [fsync(2)] (a blocking section that releases the
    OCaml runtime lock), other sessions keep executing and enqueueing, so
    the next batch grows with concurrency and the fsync cost amortizes:
    fsyncs/statement drops below 1 as soon as sessions overlap.

    Durability ordering is preserved per session: [submit] returns only
    once the fsync covering the caller's records completed, so a caller
    that releases results after [submit] keeps the evidence-before-results
    invariant. A failed batch (failed append or fsync, including injected
    faults on the underlying log) kills the writer: every waiter in the
    batch — and every later submit — gets the [Log_io] error, and recovery
    of the on-disk log goes through the normal torn-tail scan. *)
module Group = struct
  type nonrec t = {
    wal : t;  (** underlying log; all appends/fsyncs funnel through here *)
    mu : Mutex.t;
    flushed : Condition.t;  (** a flush completed (or the writer died) *)
    space : Condition.t;  (** the queue drained below the backpressure cap *)
    max_pending : int;  (** queued-record cap; submit blocks above it *)
    mutable queue : record list;  (** pending records, newest first *)
    mutable queued : int;
    mutable enqueued : int;  (** records ever enqueued (ticket counter) *)
    mutable durable : int;  (** records covered by a completed fsync *)
    mutable flushing : bool;  (** a leader is mid-flush *)
    mutable paused : bool;  (** test hook: hold flushes to force grouping *)
    mutable dead : string option;  (** first fatal error; poisons the writer *)
    mutable closed : bool;
    (* stats *)
    mutable batches : int;
    mutable submits : int;  (** submit calls that carried records *)
    mutable max_batch : int;  (** largest single-fsync batch (records) *)
  }

  type stats = {
    s_submits : int;
    s_records : int;
    s_batches : int;
    s_fsyncs : int;
    s_max_batch : int;
  }

  let create ?(max_pending = 4096) wal =
    {
      wal;
      mu = Mutex.create ();
      flushed = Condition.create ();
      space = Condition.create ();
      max_pending;
      queue = [];
      queued = 0;
      enqueued = 0;
      durable = 0;
      flushing = false;
      paused = false;
      dead = None;
      closed = false;
      batches = 0;
      submits = 0;
      max_batch = 0;
    }

  let wal g = g.wal

  let stats g =
    Mutex.lock g.mu;
    let s =
      {
        s_submits = g.submits;
        s_records = g.enqueued;
        s_batches = g.batches;
        s_fsyncs = syncs g.wal;
        s_max_batch = g.max_batch;
      }
    in
    Mutex.unlock g.mu;
    s

  (** Records enqueued but not yet durable (test/monitoring hook). *)
  let pending g =
    Mutex.lock g.mu;
    let n = g.enqueued - g.durable in
    Mutex.unlock g.mu;
    n

  (** Hold flushes: submits enqueue and park, so a test can force K
      sessions' records into one batch before {!resume} releases it. *)
  let pause g =
    Mutex.lock g.mu;
    g.paused <- true;
    Mutex.unlock g.mu

  let resume g =
    Mutex.lock g.mu;
    g.paused <- false;
    Condition.broadcast g.flushed;
    Mutex.unlock g.mu

  let fail_dead g msg =
    log_io (Printf.sprintf "group writer on %s: %s" g.wal.path msg)

  (* Drain the queue as the leader: every queued record in one write
     (split only by rotation or an injected fault), one fsync for the
     lot. Called with [g.mu] held; releases it around the I/O. *)
  let lead g =
    g.flushing <- true;
    let batch = List.rev g.queue in
    let n = g.queued in
    let upto = g.enqueued in
    g.queue <- [];
    g.queued <- 0;
    Condition.broadcast g.space;
    Mutex.unlock g.mu;
    let outcome =
      try
        append_all g.wal batch;
        sync g.wal;
        Ok ()
      with
      | Engine_error.Error (Engine_error.Log_io m) -> Error m
      | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    Mutex.lock g.mu;
    g.flushing <- false;
    (match outcome with
    | Ok () ->
      g.durable <- upto;
      g.batches <- g.batches + 1;
      if n > g.max_batch then g.max_batch <- n
    | Error m -> g.dead <- Some m);
    Condition.broadcast g.flushed;
    Condition.broadcast g.space

  (** Append [records] and block until they are durable (covered by a
      group fsync). Empty submissions return immediately. Raises
      [Engine_error.Error (Log_io _)] once the writer is dead or closed —
      the policy layer decides fail-closed vs fail-open, exactly as for a
      direct {!append}/{!sync}. *)
  let submit g (records : record list) : unit =
    if records <> [] then begin
      Mutex.lock g.mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock g.mu)
        (fun () ->
          let n = List.length records in
          while g.dead = None && not g.closed && g.queued >= g.max_pending do
            Condition.wait g.space g.mu
          done;
          (match g.dead with
          | Some m -> fail_dead g m
          | None -> if g.closed then fail_dead g "writer is closed");
          g.queue <- List.rev_append records g.queue;
          g.queued <- g.queued + n;
          g.enqueued <- g.enqueued + n;
          g.submits <- g.submits + 1;
          let ticket = g.enqueued in
          let rec ensure () =
            if g.durable >= ticket then ()
            else
              match g.dead with
              | Some m -> fail_dead g m
              | None ->
                if g.flushing || g.paused then begin
                  Condition.wait g.flushed g.mu;
                  ensure ()
                end
                else begin
                  lead g;
                  ensure ()
                end
          in
          ensure ())
    end

  (** Flush whatever is queued (unparking any paused state) without
      closing. Raises on a dead writer. *)
  let drain g =
    Mutex.lock g.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock g.mu)
      (fun () ->
        g.paused <- false;
        let rec loop () =
          match g.dead with
          | Some m -> fail_dead g m
          | None ->
            if g.flushing then begin
              Condition.wait g.flushed g.mu;
              loop ()
            end
            else if g.queued > 0 then begin
              lead g;
              loop ()
            end
        in
        loop ())

  (** Drain, then close the writer and the underlying log. Waiters and
      later submits fail; a dead writer closes without raising. *)
  let close g =
    (try drain g with Engine_error.Error (Engine_error.Log_io _) -> ());
    Mutex.lock g.mu;
    g.closed <- true;
    Condition.broadcast g.flushed;
    Condition.broadcast g.space;
    Mutex.unlock g.mu;
    close g.wal
end
