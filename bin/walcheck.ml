(* walcheck — inspect and assert over a durable audit log.

   CI's evidence gate: after the server smoke test shuts serverd down,
   walcheck proves every client's ACCESSED evidence actually reached the
   log, from distinct sessions, with no torn tail. Segmented logs (a
   manifest is present next to the base path) are read in full — every
   sealed segment plus the tail — so offline audits always cover the
   complete history.

   Usage:
     walcheck <path> [options]
       --dump                  print every record
       --json                  emit the summary as JSON on stdout
       --require-users A,B,..  each user must have >= 1 complete ACCESSED
                               record
       --require-sessions N    evidence must come from >= N distinct
                               sessions
       --min-records N         total record count floor
       --min-segments N        the log must span >= N segment files
       --clean                 no corruption and no truncated tail
                               (zero padding a writer preallocated past
                               its last frame is reported as padding,
                               never as a torn tail)
       --exactly-once          no duplicate (session, seq, audit) ACCESSED
                               evidence — the retry/exactly-once gate

   Duplicates are always counted and reported; --exactly-once turns a
   non-zero count into a failure. Exit status 0 when every assertion
   holds, 1 otherwise, 2 on usage. *)

module Wal = Audit_log.Wal
module Json = Benchkit.Json

let usage () =
  prerr_endline
    "usage: walcheck <path> [--dump] [--json] [--require-users A,B] \
     [--require-sessions N] [--min-records N] [--min-segments N] [--clean] \
     [--exactly-once]";
  exit 2

let () =
  let path = ref None in
  let dump = ref false in
  let json = ref false in
  let require_users = ref [] in
  let require_sessions = ref 0 in
  let min_records = ref 0 in
  let min_segments = ref 0 in
  let clean = ref false in
  let exactly_once = ref false in
  let rec parse = function
    | [] -> ()
    | "--dump" :: rest ->
      dump := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--require-users" :: users :: rest ->
      require_users := String.split_on_char ',' users;
      parse rest
    | "--require-sessions" :: n :: rest ->
      (match int_of_string_opt n with Some k -> require_sessions := k | None -> usage ());
      parse rest
    | "--min-records" :: n :: rest ->
      (match int_of_string_opt n with Some k -> min_records := k | None -> usage ());
      parse rest
    | "--min-segments" :: n :: rest ->
      (match int_of_string_opt n with Some k -> min_segments := k | None -> usage ());
      parse rest
    | "--clean" :: rest ->
      clean := true;
      parse rest
    | "--exactly-once" :: rest ->
      exactly_once := true;
      parse rest
    | arg :: rest when !path = None && String.length arg > 0 && arg.[0] <> '-'
      ->
      path := Some arg;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> usage () in
  let records, r = Wal.read_all path in
  if !dump then
    List.iter (fun rec_ -> print_endline (Wal.record_to_string rec_)) records;
  let sessions = Hashtbl.create 16 in
  let accessed_users = Hashtbl.create 16 in
  let evidence_keys = Hashtbl.create 64 in
  let duplicates = ref [] in
  let accessed = ref 0 and fired = ref 0 and notes = ref 0 in
  List.iter
    (fun rec_ ->
      (match Wal.record_session rec_ with
      | Some s -> Hashtbl.replace sessions s ()
      | None -> ());
      match rec_ with
      | Wal.Accessed { session; seq; user; audit; complete; _ } ->
        incr accessed;
        if complete then Hashtbl.replace accessed_users user ();
        (* Exactly-once key: one complete ACCESSED record per statement
           per audit expression. A duplicate means a statement executed
           (and logged) twice — the invariant the retry layer protects. *)
        if complete then begin
          let key = (session, seq, audit) in
          if Hashtbl.mem evidence_keys key then duplicates := key :: !duplicates
          else Hashtbl.add evidence_keys key ()
        end
      | Wal.Trigger_fired _ -> incr fired
      | Wal.Notify _ -> ()
      | Wal.Note _ -> incr notes
      | Wal.Checkpoint _ -> ())
    records;
  let duplicates = List.rev !duplicates in
  let failures = ref 0 in
  let checks = ref [] in
  let check name cond =
    checks := (name, cond) :: !checks;
    if not cond then incr failures
  in
  List.iter
    (fun u ->
      check
        (Printf.sprintf "complete ACCESSED evidence for user %s" u)
        (Hashtbl.mem accessed_users u))
    !require_users;
  if !require_sessions > 0 then
    check
      (Printf.sprintf "evidence from >= %d distinct sessions" !require_sessions)
      (Hashtbl.length sessions >= !require_sessions);
  if !min_records > 0 then
    check
      (Printf.sprintf ">= %d records" !min_records)
      (List.length records >= !min_records);
  if !min_segments > 0 then
    check
      (Printf.sprintf ">= %d segments" !min_segments)
      (r.Wal.segments >= !min_segments);
  if !clean then begin
    check "no corruption" (not r.Wal.corrupt);
    check "no truncated tail" (r.Wal.truncated_bytes = 0)
  end;
  if !exactly_once then
    check "no duplicate (session, seq, audit) evidence" (duplicates = []);
  let checks = List.rev !checks in
  if !json then begin
    let open Json in
    print_endline
      (to_string
         (Obj
            [
              ("path", Str path);
              ("records", Int (List.length records));
              ("accessed", Int !accessed);
              ("trigger_firings", Int !fired);
              ("notes", Int !notes);
              ("sessions", Int (Hashtbl.length sessions));
              ("segments", Int r.Wal.segments);
              ("tail_segment", Int r.Wal.tail_segment);
              ("valid_bytes", Int r.Wal.valid_bytes);
              ("scanned_bytes", Int r.Wal.scanned_bytes);
              ("truncated_bytes", Int r.Wal.truncated_bytes);
              ("padding_bytes", Int r.Wal.padding_bytes);
              ("corrupt", Bool r.Wal.corrupt);
              ( "duplicate_evidence",
                List
                  (List.map
                     (fun (s, q, a) ->
                       Obj
                         [
                           ("session", Int s); ("seq", Int q); ("audit", Str a);
                         ])
                     duplicates) );
              ( "checks",
                List
                  (List.map
                     (fun (name, ok) ->
                       Obj [ ("name", Str name); ("ok", Bool ok) ])
                     checks) );
              ("ok", Bool (!failures = 0));
            ]))
  end
  else begin
    Printf.printf
      "walcheck %s: %d records (%d accessed, %d trigger firings, %d notes), \
       %d sessions, %d segments, %d bytes truncated, %d padding bytes, %d \
       duplicates%s\n"
      path (List.length records) !accessed !fired !notes
      (Hashtbl.length sessions) r.Wal.segments r.Wal.truncated_bytes
      r.Wal.padding_bytes (List.length duplicates)
      (if r.Wal.corrupt then ", CORRUPT" else "");
    List.iter
      (fun (name, ok) ->
        Printf.printf "%s - %s\n" (if ok then "ok  " else "FAIL") name)
      checks
  end;
  exit (if !failures = 0 then 0 else 1)
