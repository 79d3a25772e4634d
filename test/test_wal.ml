(** The durable audit log: framing, recovery, failure-atomic appends. *)

module Wal = Audit_log.Wal
module F = Engine_core.Faultkit
module E = Engine_core.Engine_error

let record : Wal.record Alcotest.testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Wal.record_to_string r))
    ( = )

let records = Alcotest.list record

(* A path in the build sandbox that does not exist yet. *)
let fresh_path name =
  let p = Filename.temp_file ("wal_" ^ name) ".wal" in
  Sys.remove p;
  p

let sample =
  [
    Wal.Accessed
      {
        session = 0;
        seq = 3;
        user = "admin";
        sql = "SELECT * FROM patients";
        audit = "audit_alice";
        ids = [ "1"; "4" ];
        complete = true;
      };
    Wal.Trigger_fired
      {
        session = 0;
        seq = 3;
        trigger = "watch";
        audit = "audit_alice";
        timing = "AFTER";
      };
    Wal.Notify { session = 0; seq = 4; msg = "alice accessed" };
    Wal.Note "alarm: example";
    Wal.Accessed
      {
        session = 7;
        seq = 5;
        user = "mallory";
        sql = "SELECT name FROM patients WHERE age > 30";
        audit = "audit_all";
        ids = [];
        complete = false;
      };
  ]

let write_sample path =
  let w, _ = Wal.open_ path in
  List.iter (Wal.append w) sample;
  Wal.sync w;
  Wal.close w

let is_log_io = function
  | E.Error (E.Log_io _) -> true
  | _ -> false

let expect_log_io f =
  match f () with
  | _ -> Alcotest.fail "expected a Log_io failure"
  | exception e ->
    Alcotest.(check bool) "raises Log_io" true (is_log_io e)

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let path = fresh_path "roundtrip" in
  write_sample path;
  let got, r = Wal.read_all path in
  Alcotest.check records "all variants survive a roundtrip" sample got;
  Alcotest.(check int) "valid records" (List.length sample) r.Wal.valid_records;
  Alcotest.(check int) "nothing truncated" 0 r.Wal.truncated_bytes;
  Alcotest.(check bool) "not corrupt" false r.Wal.corrupt

let test_fresh_and_missing () =
  let path = fresh_path "fresh" in
  let got, r = Wal.read_all path in
  Alcotest.check records "missing file reads as empty" [] got;
  Alcotest.(check int) "no records" 0 r.Wal.valid_records;
  let w, r0 = Wal.open_ path in
  Alcotest.(check int) "fresh open recovers nothing" 0 r0.Wal.valid_records;
  Alcotest.(check bool) "fresh open not corrupt" false r0.Wal.corrupt;
  Wal.close w;
  let got, _ = Wal.read_all path in
  Alcotest.check records "fresh log is empty" [] got

let test_reopen_append () =
  let path = fresh_path "reopen" in
  write_sample path;
  let w, r = Wal.open_ path in
  Alcotest.(check int) "reopen sees prior records" (List.length sample)
    r.Wal.valid_records;
  Wal.append w (Wal.Note "second session");
  Wal.sync w;
  Alcotest.(check int) "appended counts this handle only" 1 (Wal.appended w);
  Wal.close w;
  let got, _ = Wal.read_all path in
  Alcotest.check records "sessions accumulate"
    (sample @ [ Wal.Note "second session" ])
    got

let test_torn_tail () =
  let path = fresh_path "torn" in
  write_sample path;
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 1; fault = F.Crash_before_sync } ];
  let w, _ = Wal.open_ ~faults:kit path in
  expect_log_io (fun () -> Wal.append w (Wal.Note "never lands"));
  Alcotest.(check bool) "handle dead after crash" false (Wal.is_open w);
  let got, r = Wal.read_all path in
  Alcotest.check records "intact records survive the crash" sample got;
  Alcotest.(check bool) "torn tail detected" true (r.Wal.truncated_bytes > 0);
  Alcotest.(check bool) "short tail is not corruption" false r.Wal.corrupt;
  (* Recovery-on-open truncates the tail and the log is writable again. *)
  let w2, r2 = Wal.open_ path in
  Alcotest.(check int) "recovery keeps every record" (List.length sample)
    r2.Wal.valid_records;
  Wal.append w2 (Wal.Note "after recovery");
  Wal.sync w2;
  Wal.close w2;
  let got, r3 = Wal.read_all path in
  Alcotest.check records "append after recovery"
    (sample @ [ Wal.Note "after recovery" ])
    got;
  Alcotest.(check int) "tail gone after recovery" 0 r3.Wal.truncated_bytes

let test_checksum_corruption () =
  let path = fresh_path "corrupt" in
  write_sample path;
  let size = (Unix.stat path).Unix.st_size in
  (* Flip a byte in the last record's payload (well past the prefix). *)
  let pos = size - 3 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.make 1 '\xff' in
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let got, r = Wal.read_all path in
  Alcotest.(check bool) "corruption detected" true r.Wal.corrupt;
  Alcotest.(check int) "prefix before the flip survives"
    (List.length sample - 1)
    r.Wal.valid_records;
  Alcotest.check records "prefix records intact"
    (List.filteri (fun i _ -> i < List.length sample - 1) sample)
    got;
  (* Open-time recovery truncates the corrupt tail for good. *)
  let w, _ = Wal.open_ path in
  Wal.close w;
  let _, r2 = Wal.read_all path in
  Alcotest.(check bool) "healed after recovery" false r2.Wal.corrupt;
  Alcotest.(check int) "no tail left" 0 r2.Wal.truncated_bytes

let test_short_write_heals () =
  let path = fresh_path "short" in
  write_sample path;
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 1; fault = F.Short_write 3 } ];
  let w, _ = Wal.open_ ~faults:kit path in
  expect_log_io (fun () -> Wal.append w (Wal.Note "torn"));
  (* Failure-atomicity: the failed append left no trace and the handle
     survives (the heal truncated the torn prefix). *)
  Alcotest.(check bool) "handle survives a healed failure" true
    (Wal.is_open w);
  let got, r = Wal.read_all path in
  Alcotest.check records "log exactly as before the failed append" sample got;
  Alcotest.(check int) "no torn bytes on disk" 0 r.Wal.truncated_bytes;
  Wal.append w (Wal.Note "retry");
  Wal.sync w;
  Wal.close w;
  let got, _ = Wal.read_all path in
  Alcotest.check records "retry lands cleanly"
    (sample @ [ Wal.Note "retry" ])
    got

let test_enospc_heals () =
  let path = fresh_path "enospc" in
  write_sample path;
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 1; fault = F.Enospc } ];
  let w, _ = Wal.open_ ~faults:kit path in
  expect_log_io (fun () -> Wal.append w (Wal.Note "no space"));
  Alcotest.(check bool) "handle survives ENOSPC" true (Wal.is_open w);
  Wal.append w (Wal.Note "space back");
  Wal.sync w;
  Wal.close w;
  let got, _ = Wal.read_all path in
  Alcotest.check records "only the successful append is on disk"
    (sample @ [ Wal.Note "space back" ])
    got

(* ------------------------------------------------------------------ *)
(* Segmented mode                                                      *)
(* ------------------------------------------------------------------ *)

let note i = Wal.Note (Printf.sprintf "record %04d" i)

(* Append [n] notes through a segmented writer with a tiny rotation
   threshold, sync, close; returns the writer's final segment count. *)
let write_segmented ?(max_segment_size = 256) ?faults path n =
  let w, _ = Wal.open_ ?faults ~max_segment_size path in
  for i = 1 to n do
    Wal.append w (note i)
  done;
  Wal.sync w;
  let segs = Wal.segments w in
  Wal.close w;
  segs

let test_segmented_rotation () =
  let path = fresh_path "seg" in
  let segs = write_segmented path 40 in
  Alcotest.(check bool) "rotation produced several segments" true (segs > 2);
  Alcotest.(check bool) "manifest exists" true
    (Sys.file_exists (Wal.manifest_path path));
  Alcotest.(check bool) "base path is not a plain log" false
    (Sys.file_exists path);
  let got, r = Wal.read_all path in
  Alcotest.check records "full history across segments"
    (List.init 40 (fun i -> note (i + 1)))
    got;
  Alcotest.(check int) "recovery reports the segment count" segs
    r.Wal.segments;
  Alcotest.(check bool) "clean" false r.Wal.corrupt;
  Alcotest.(check int) "no torn tail" 0 r.Wal.truncated_bytes

let test_segmented_reopen_bounded () =
  let path = fresh_path "segreopen" in
  let segs = write_segmented path 60 in
  (* Reopen without ~max_segment_size: the manifest's presence selects
     segmented mode; recovery must scan only manifest + tail. *)
  let w, r = Wal.open_ path in
  Alcotest.(check bool) "manifest selects segmented mode" true
    (Wal.is_segmented w);
  Alcotest.(check int) "reopen sees every record" 60 r.Wal.valid_records;
  Alcotest.(check int) "segment count carries over" segs r.Wal.segments;
  let total_bytes =
    let rec sum acc i =
      let p = Wal.segment_path path i in
      if Sys.file_exists p then sum (acc + (Unix.stat p).Unix.st_size) (i + 1)
      else acc
    in
    sum 0 0
  in
  Alcotest.(check bool) "bounded recovery scanned less than the trail" true
    (r.Wal.scanned_bytes < total_bytes);
  Wal.append w (Wal.Note "after reopen");
  Wal.sync w;
  Wal.close w;
  let got, _ = Wal.read_all path in
  Alcotest.(check int) "append after reopen lands" 61 (List.length got)

let test_segmented_torn_tail () =
  let path = fresh_path "segtorn" in
  ignore (write_segmented path 30);
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 1; fault = F.Crash_before_sync } ];
  let w, _ = Wal.open_ ~faults:kit path in
  expect_log_io (fun () -> Wal.append w (Wal.Note "never lands"));
  let got, r = Wal.read_all path in
  Alcotest.(check int) "intact records survive" 30 (List.length got);
  Alcotest.(check bool) "torn tail detected" true (r.Wal.truncated_bytes > 0);
  Alcotest.(check bool) "torn tail confined to the tail segment" false
    r.Wal.corrupt;
  (* Recovery truncates the tail segment; the log is writable again. *)
  let w2, r2 = Wal.open_ path in
  Alcotest.(check int) "recovery keeps every record" 30 r2.Wal.valid_records;
  Wal.append w2 (Wal.Note "after recovery");
  Wal.sync w2;
  Wal.close w2;
  let _, r3 = Wal.read_all path in
  Alcotest.(check int) "tail gone after recovery" 0 r3.Wal.truncated_bytes

let test_segmented_enospc_rotates () =
  let path = fresh_path "segenospc" in
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 3; fault = F.Enospc } ];
  (* Large threshold: no size-based rotation, so any rotation observed
     came from the ENOSPC recovery path. *)
  let w, _ = Wal.open_ ~faults:kit ~max_segment_size:(1 lsl 20) path in
  for i = 1 to 5 do
    Wal.append w (note i)
  done;
  Alcotest.(check int) "ENOSPC triggered exactly one rotation" 1
    (Wal.rotations w);
  Alcotest.(check bool) "handle survives" true (Wal.is_open w);
  Wal.sync w;
  Wal.close w;
  let got, r = Wal.read_all path in
  Alcotest.check records "no record lost to ENOSPC"
    (List.init 5 (fun i -> note (i + 1)))
    got;
  Alcotest.(check int) "two segments" 2 r.Wal.segments;
  Alcotest.(check bool) "clean" false r.Wal.corrupt

(* ------------------------------------------------------------------ *)
(* Preallocated padding                                                *)
(* ------------------------------------------------------------------ *)

let file_size p = (Unix.stat p).Unix.st_size
let read_bytes p = In_channel.with_open_bin p In_channel.input_all

let frames rs = String.concat "" (List.map Wal.frame rs)

(* A note whose frame is [8 + 5 + size] bytes. *)
let sized_note i size =
  let tag = Printf.sprintf "n%05d" i in
  Wal.Note (tag ^ String.make (max 0 (size - String.length tag)) 'z')

(* Segment by segment, the records a segmented writer puts in each file:
   it rotates once an append brings the active file to [max] bytes. *)
let split_segments ~max rs =
  let segs, cur, _ =
    List.fold_left
      (fun (segs, cur, size) r ->
        let size = size + String.length (Wal.frame r) in
        if size >= max then
          (List.rev (r :: cur) :: segs, [], String.length Wal.magic)
        else (segs, r :: cur, size))
      ([], [], String.length Wal.magic)
      rs
  in
  List.rev (List.rev cur :: segs)

(* After [close] a log holds the magic and its frames, byte for byte:
   the padding a live writer keeps past its last frame is gone, and no
   sealed segment ever holds any. Records cross a 64 KiB chunk boundary,
   and some payloads end in zero bytes. *)
let test_close_drops_padding () =
  let rs =
    List.init 40 (fun i -> sized_note i (if i mod 3 = 0 then 4000 else 30))
    @ [ Wal.Note ""; List.nth sample 4 ]
  in
  let path = fresh_path "closed" in
  let w, _ = Wal.open_ path in
  List.iter (Wal.append w) rs;
  Wal.sync w;
  let data = String.length Wal.magic + String.length (frames rs) in
  Alcotest.(check bool) "a live writer keeps padding past its frames" true
    (file_size path > data);
  let got, r = Wal.read_all path in
  Alcotest.check records "padding is not read as records" rs got;
  Alcotest.(check int) "padding is not a torn tail" 0 r.Wal.truncated_bytes;
  Alcotest.(check int) "padding is reported as padding" (file_size path - data)
    r.Wal.padding_bytes;
  Wal.close w;
  Alcotest.(check string) "closed single-file log = magic ^ frames"
    (Wal.magic ^ frames rs) (read_bytes path);
  let path = fresh_path "closedseg" in
  let max_segment_size = 16 * 1024 in
  let w, _ = Wal.open_ ~max_segment_size path in
  List.iter (Wal.append w) rs;
  Wal.sync w;
  let segs = split_segments ~max:max_segment_size rs in
  Alcotest.(check int) "the writer rotated where expected" (List.length segs)
    (Wal.segments w);
  List.iteri
    (fun i seg ->
      if i < List.length segs - 1 then
        Alcotest.(check string)
          (Printf.sprintf "sealed segment %d = magic ^ frames, while open" i)
          (Wal.magic ^ frames seg)
          (read_bytes (Wal.segment_path path i)))
    segs;
  let tail = List.length segs - 1 in
  let tail_size = file_size (Wal.segment_path path tail) in
  Alcotest.(check bool) "the live tail segment is padded" true
    (tail_size > String.length Wal.magic + String.length (frames (List.nth segs tail)));
  Alcotest.(check bool) "padding never passes the rotation threshold" true
    (tail_size <= max_segment_size);
  Wal.close w;
  List.iteri
    (fun i seg ->
      Alcotest.(check string)
        (Printf.sprintf "closed segment %d = magic ^ frames" i)
        (Wal.magic ^ frames seg)
        (read_bytes (Wal.segment_path path i)))
    segs;
  let got, r = Wal.read_all path in
  Alcotest.check records "segmented history intact" rs got;
  Alcotest.(check int) "no padding left" 0 r.Wal.padding_bytes;
  (* ENOSPC seals a padded segment before its threshold. *)
  let path = fresh_path "enospcseg" in
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 3; fault = F.Enospc } ];
  let w, _ = Wal.open_ ~faults:kit ~max_segment_size:(1 lsl 20) path in
  List.iter (Wal.append w) [ note 1; note 2; note 3 ];
  Wal.sync w;
  Alcotest.(check string) "a segment sealed by ENOSPC = magic ^ frames"
    (Wal.magic ^ frames [ note 1; note 2 ])
    (read_bytes (Wal.segment_path path 0));
  Wal.close w

(* A frame torn by a crash reads as torn, not corrupt, wherever it ends:
   inside the padding of a chunk it had to extend, exactly at the end of
   a chunk, or exactly at a segment's rotation threshold (the writer then
   drops the padding and appends it unpadded). *)
let test_torn_frame_in_padding () =
  let crash_on path ?max_segment_size before r =
    let kit = F.create () in
    F.arm kit
      [ F.Log_io { at = List.length before + 1; fault = F.Crash_before_sync } ];
    let w, _ = Wal.open_ ~faults:kit ?max_segment_size path in
    List.iter (Wal.append w) before;
    Wal.sync w;
    expect_log_io (fun () -> Wal.append w r);
    let got, rec_ = Wal.read_all path in
    Alcotest.check records "synced records survive" before got;
    Alcotest.(check bool) "the torn frame is torn" true
      (rec_.Wal.truncated_bytes > 0);
    Alcotest.(check bool) "and not corrupt" false rec_.Wal.corrupt
  in
  (* 60 KiB of frames, then one that passes the first chunk's end. *)
  crash_on (fresh_path "tornchunk")
    (List.init 15 (fun i -> sized_note i 4000))
    (sized_note 99 8000);
  (* A frame ending exactly where the first chunk ends. *)
  crash_on (fresh_path "tornchunkend")
    [ sized_note 0 32000 ]
    (sized_note 1 (65536 - 32013 - 13));
  (* A frame ending exactly at the 4 KiB threshold of a segment. *)
  crash_on (fresh_path "tornseg") ~max_segment_size:4096
    [ sized_note 0 1000 ]
    (sized_note 1 (4096 - String.length Wal.magic - 1013 - 13))

type crash = Kill | Torn  (** plain [kill]; injected crash mid-frame *)

let gen_crash_case =
  QCheck.Gen.(
    let record =
      map2 sized_note (int_bound 99999)
        (frequency [ (3, int_range 0 64); (1, int_range 2000 9000) ])
    in
    let steps = list_size (int_range 1 40) (pair record bool) in
    map
      (fun (steps, (cut, crash, segmented, poke)) ->
        let k = cut mod (List.length steps + 1) in
        (steps, k, crash, segmented, poke))
      (pair steps
         (quad nat (oneofl [ Kill; Torn ]) bool (int_bound 1_000_000))))

let print_crash_case (steps, k, crash, segmented, _) =
  Printf.sprintf "%d records (sizes %s), crash after %d by %s, %s" (List.length steps)
    (String.concat ","
       (List.map (fun (r, _) -> string_of_int (String.length (Wal.frame r))) steps))
    k
    (match crash with Kill -> "kill" | Torn -> "torn frame")
    (if segmented then "segmented" else "single file")

let remove_log path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (path :: Wal.manifest_path path :: List.init 64 (Wal.segment_path path))

(* A writer dies ([kill], never [close]) after [k] appends, at a random
   point of a padded chunk, with random fsyncs before; [Torn] also leaves
   half of the next frame inside the padding. Nothing may be lost or
   called corrupt, the padding must still be on disk, and recovery must
   drop it. A non-zero byte after a zero header is still corruption. *)
let prop_kill_keeps_padding =
  QCheck.Test.make ~count:60 ~name:"kill leaves padding; recovery keeps every record"
    (QCheck.make ~print:print_crash_case gen_crash_case)
    (fun (steps, k, crash, segmented, poke) ->
      let path = fresh_path "prop" in
      let max_segment_size = if segmented then Some (16 * 1024) else None in
      let kit = F.create () in
      if crash = Torn then
        F.arm kit [ F.Log_io { at = k + 1; fault = F.Crash_before_sync } ];
      let w, _ = Wal.open_ ~faults:kit ?max_segment_size path in
      let written = List.filteri (fun i _ -> i < k) steps |> List.map fst in
      List.iteri
        (fun i (r, sync) ->
          if i < k then begin
            Wal.append w r;
            if sync then Wal.sync w
          end
          else if i = k && crash = Torn then
            match Wal.append w r with
            | () -> QCheck.Test.fail_report "injected crash did not fire"
            | exception E.Error (E.Log_io _) -> ())
        steps;
      Wal.kill w;
      let got, r = Wal.read_all path in
      let torn = crash = Torn && k < List.length steps in
      if got <> written then QCheck.Test.fail_report "records lost or invented";
      if r.Wal.corrupt then QCheck.Test.fail_report "a zero tail read as corrupt";
      if torn <> (r.Wal.truncated_bytes > 0) then
        QCheck.Test.fail_reportf "torn frame %b but %d torn bytes" torn
          r.Wal.truncated_bytes;
      if (not segmented) && k > 0 && r.Wal.padding_bytes = 0 then
        QCheck.Test.fail_report "kill truncated the padding";
      (* A non-zero byte after a zero header, in a copy of the log. *)
      if (not segmented) && (not torn) && r.Wal.padding_bytes > 8 then begin
        let at = r.Wal.valid_bytes + 8 + (poke mod (r.Wal.padding_bytes - 8)) in
        let b = Bytes.of_string (read_bytes path) in
        Bytes.set b at '\001';
        let copy = path ^ ".poked" in
        Out_channel.with_open_bin copy (fun oc -> Out_channel.output_bytes oc b);
        let got', r' = Wal.read_all copy in
        Sys.remove copy;
        if not r'.Wal.corrupt then
          QCheck.Test.fail_report "a non-zero byte after a zero header is not corrupt";
        if got' <> written then QCheck.Test.fail_report "the poke cost a record"
      end;
      let w, r = Wal.open_ ?max_segment_size path in
      if r.Wal.valid_records <> k then QCheck.Test.fail_report "recovery lost records";
      let _, r = Wal.read_all path in
      if r.Wal.padding_bytes <> 0 || r.Wal.truncated_bytes <> 0 then
        QCheck.Test.fail_report "recovery left padding or a torn tail";
      Wal.append w (Wal.Note "after recovery");
      Wal.close w;
      let got, _ = Wal.read_all path in
      if got <> written @ [ Wal.Note "after recovery" ] then
        QCheck.Test.fail_report "append after recovery";
      if not segmented then begin
        let expected = Wal.magic ^ frames got in
        if read_bytes path <> expected then
          QCheck.Test.fail_report "closed log is not magic ^ frames"
      end;
      remove_log path;
      true)

let test_crc32 () =
  (* The standard CRC32 (IEEE 802.3) check value. *)
  Alcotest.(check int)
    "crc32 check value" 0xcbf43926
    (Wal.crc32 "123456789");
  Alcotest.(check int) "crc32 of empty string" 0 (Wal.crc32 "")

(* A group commit's batch goes out through one [append_all]: the fault
   kit is still consulted once per record, so a fault at record k leaves
   records 1..k-1 written, and a segment still rotates right after the
   record that reaches the threshold, so a batch writes the same segment
   files as one append per record. *)
let test_append_all_splits () =
  let read path = fst (Wal.read_all path) in
  let notes = List.init 5 (fun i -> note (i + 1)) in
  List.iter
    (fun (fault, survives) ->
      let path = fresh_path "batch" in
      let kit = F.create () in
      F.arm kit [ F.Log_io { at = 3; fault } ];
      let w, _ = Wal.open_ ~faults:kit path in
      expect_log_io (fun () -> Wal.append_all w notes);
      if Wal.is_open w then Wal.close w else Wal.kill w;
      Alcotest.check records "records before the fault" survives (read path))
    [
      (F.Short_write 3, [ note 1; note 2 ]);
      (F.Crash_before_sync, [ note 1; note 2 ]);
      (F.Enospc, [ note 1; note 2 ]);
    ];
  let batch = fresh_path "seg_batch" and single = fresh_path "seg_single" in
  let n = 40 in
  let segs = write_segmented single n in
  let w, _ = Wal.open_ ~max_segment_size:256 batch in
  Wal.append_all w (List.init n (fun i -> note (i + 1)));
  Wal.sync w;
  Alcotest.(check int) "same segment count" segs (Wal.segments w);
  Wal.close w;
  Alcotest.check records "full history" (read single) (read batch);
  for i = 0 to segs - 1 do
    Alcotest.(check string)
      (Printf.sprintf "segment %d byte-identical" i)
      (In_channel.with_open_bin (Wal.segment_path single i) In_channel.input_all)
      (In_channel.with_open_bin (Wal.segment_path batch i) In_channel.input_all)
  done

let suite =
  [
    Alcotest.test_case "roundtrip all record variants" `Quick test_roundtrip;
    Alcotest.test_case "fresh and missing logs" `Quick test_fresh_and_missing;
    Alcotest.test_case "reopen and append accumulate" `Quick test_reopen_append;
    Alcotest.test_case "crash leaves torn tail; recovery truncates" `Quick
      test_torn_tail;
    Alcotest.test_case "checksum corruption ends the valid prefix" `Quick
      test_checksum_corruption;
    Alcotest.test_case "short write heals (failure-atomic append)" `Quick
      test_short_write_heals;
    Alcotest.test_case "ENOSPC heals; retry succeeds" `Quick test_enospc_heals;
    Alcotest.test_case "segmented: rotation and full-history read" `Quick
      test_segmented_rotation;
    Alcotest.test_case "segmented: reopen is bounded to manifest + tail"
      `Quick test_segmented_reopen_bounded;
    Alcotest.test_case "segmented: torn tail confined to tail segment" `Quick
      test_segmented_torn_tail;
    Alcotest.test_case "segmented: ENOSPC rotates and retries" `Quick
      test_segmented_enospc_rotates;
    Alcotest.test_case "crc32 check value" `Quick test_crc32;
    Alcotest.test_case "close leaves magic ^ frames, sealed segments too"
      `Quick test_close_drops_padding;
    Alcotest.test_case "a frame torn inside the padding reads as torn" `Quick
      test_torn_frame_in_padding;
    QCheck_alcotest.to_alcotest prop_kill_keeps_padding;
    Alcotest.test_case "append_all: faults and rotation split a batch" `Quick
      test_append_all_splits;
  ]
