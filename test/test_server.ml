(** The served engine: wire-protocol codec, WAL group commit, and the
    end-to-end client/server path with concurrent sessions. *)

module Wire = Server.Wire
module Wal = Audit_log.Wal
module F = Engine_core.Faultkit
module E = Engine_core.Engine_error

let fresh_wal name =
  let p = Filename.temp_file ("srv_" ^ name) ".wal" in
  Sys.remove p;
  p

(* Unix-domain socket paths are capped around 100 bytes: keep them short
   and absolute rather than inside dune's sandbox tree. *)
let fresh_sock name =
  Printf.sprintf "/tmp/st_%s_%d.sock" name (Unix.getpid ())

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let reqs =
    [
      Wire.Hello { user = "alice"; token = "" };
      Wire.Hello { user = "alice"; token = "tok-42" };
      Wire.Exec { seq = 0; line = "SELECT * FROM patients;" };
      Wire.Exec { seq = 17; line = "" };
      Wire.Quit;
    ]
  in
  List.iter
    (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error m -> Alcotest.failf "request decode failed: %s" m)
    reqs;
  let resps =
    [
      Wire.Greeting { session = 42; server = "serverd" };
      Wire.Result "patientid | name\n1 | Alice\n(1 row)";
      Wire.Result "";
      Wire.Failed "error: parse error: boom";
      Wire.Overloaded { retry_after_ms = 250 };
      Wire.Goodbye;
    ]
  in
  List.iter
    (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error m -> Alcotest.failf "response decode failed: %s" m)
    resps

let test_wire_decode_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty payload" true (is_err (Wire.decode_request ""));
  Alcotest.(check bool)
    "unknown tag" true
    (is_err (Wire.decode_request "Zjunk"));
  (* A Hello whose length prefix points past the end of the payload. *)
  Alcotest.(check bool)
    "truncated string body" true
    (is_err (Wire.decode_request "H\x00\x00\x00\xffuser"));
  (* Valid prefix with trailing garbage is rejected, not silently eaten. *)
  let hello = Wire.encode_request (Wire.Hello { user = "u"; token = "" }) in
  Alcotest.(check bool)
    "trailing bytes" true
    (is_err (Wire.decode_request (hello ^ "x")))

(* Framed I/O over a real socketpair. *)
let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let test_wire_frame_roundtrip () =
  with_socketpair (fun a b ->
      let req = Wire.Exec { seq = 1; line = "SELECT 1;" } in
      Wire.send_request a req;
      (match Wire.read_frame b with
      | Wire.Frame p ->
        Alcotest.(check bool)
          "frame decodes" true
          (Wire.decode_request p = Ok req)
      | _ -> Alcotest.fail "expected a frame");
      (* Several frames queued back-to-back arrive in order. *)
      Wire.send_response a (Wire.Result "one");
      Wire.send_response a (Wire.Failed "two");
      let next () =
        match Wire.read_frame b with
        | Wire.Frame p -> Wire.decode_response p
        | _ -> Alcotest.fail "expected a frame"
      in
      Alcotest.(check bool) "first frame" true (next () = Ok (Wire.Result "one"));
      Alcotest.(check bool)
        "second frame" true
        (next () = Ok (Wire.Failed "two")))

let test_wire_truncated_frame () =
  with_socketpair (fun a b ->
      (* A length prefix announcing 100 bytes, then only 3, then EOF. *)
      let partial = "\x00\x00\x00\x64abc" in
      ignore (Unix.write_substring a partial 0 (String.length partial));
      Unix.close a;
      match Wire.read_frame b with
      | Wire.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated");
  with_socketpair (fun a b ->
      (* EOF in the middle of the length prefix itself. *)
      ignore (Unix.write_substring a "\x00\x00" 0 2);
      Unix.close a;
      match Wire.read_frame b with
      | Wire.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated");
  with_socketpair (fun a b ->
      (* Clean close at a frame boundary is Eof, not Truncated. *)
      Unix.close a;
      match Wire.read_frame b with
      | Wire.Eof -> ()
      | _ -> Alcotest.fail "expected Eof")

let test_wire_oversized_frame () =
  with_socketpair (fun a b ->
      (* Announce a body just past the cap; the reader must refuse
         without trying to allocate or read it. *)
      let n = Wire.max_frame + 1 in
      let header =
        let bts = Bytes.create 4 in
        Bytes.set bts 0 (Char.chr ((n lsr 24) land 0xff));
        Bytes.set bts 1 (Char.chr ((n lsr 16) land 0xff));
        Bytes.set bts 2 (Char.chr ((n lsr 8) land 0xff));
        Bytes.set bts 3 (Char.chr (n land 0xff));
        Bytes.to_string bts
      in
      ignore (Unix.write_substring a header 0 4);
      (match Wire.read_frame b with
      | Wire.Oversized k -> Alcotest.(check int) "announced size" n k
      | _ -> Alcotest.fail "expected Oversized"));
  (* The writer refuses to emit one in the first place. *)
  match Wire.write_frame Unix.stdout (String.make (Wire.max_frame + 1) 'x') with
  | () -> Alcotest.fail "oversized write_frame must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

let note s = Wal.Note s

(* K sessions forced into a single flush: pause the writer so every
   submit parks in the queue, then resume and count fsyncs. *)
let test_group_single_fsync () =
  let path = fresh_wal "group1" in
  let w, _ = Wal.open_ path in
  let g = Wal.Group.create w in
  let k = 6 in
  Wal.Group.pause g;
  let ths =
    List.init k (fun i ->
        Thread.create
          (fun () -> Wal.Group.submit g [ note (Printf.sprintf "s%d" i) ])
          ())
  in
  (* Wait until every session's record is parked in the queue. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Wal.Group.pending g < k && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check int) "all submits parked" k (Wal.Group.pending g);
  Alcotest.(check int) "no fsync while paused" 0 (Wal.syncs w);
  Wal.Group.resume g;
  List.iter Thread.join ths;
  let st = Wal.Group.stats g in
  Alcotest.(check int) "exactly one fsync" 1 st.Wal.Group.s_fsyncs;
  Alcotest.(check int) "one batch" 1 st.Wal.Group.s_batches;
  Alcotest.(check int) "batch carried all sessions" k st.Wal.Group.s_max_batch;
  Alcotest.(check int) "nothing pending" 0 (Wal.Group.pending g);
  Wal.Group.close g;
  let records, r = Wal.read_all path in
  Alcotest.(check int) "every record durable" k (List.length records);
  Alcotest.(check bool) "log clean" false r.Wal.corrupt

(* Backpressure: with a tiny max_pending, extra submits block until a
   flush frees queue space — and everything still lands. *)
let test_group_backpressure () =
  let path = fresh_wal "group_bp" in
  let w, _ = Wal.open_ path in
  let g = Wal.Group.create ~max_pending:2 w in
  Wal.Group.pause g;
  let ths =
    List.init 5 (fun i ->
        Thread.create
          (fun () -> Wal.Group.submit g [ note (Printf.sprintf "bp%d" i) ])
          ())
  in
  (* Only up to max_pending records can be queued while paused. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Wal.Group.pending g < 2 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Thread.yield ();
  Alcotest.(check bool)
    "queue capped at max_pending" true
    (Wal.Group.pending g <= 2);
  Wal.Group.resume g;
  List.iter Thread.join ths;
  Wal.Group.close g;
  let records, _ = Wal.read_all path in
  Alcotest.(check int) "all blocked submits landed" 5 (List.length records)

(* A failed group flush poisons the writer: every waiter raises Log_io
   and so does any later submit; the records never reached the log. *)
let test_group_poisoned () =
  let path = fresh_wal "group_fail" in
  let kit = F.create () in
  F.arm kit [ F.Log_io { at = 1; fault = F.Crash_before_sync } ];
  let w, _ = Wal.open_ ~faults:kit path in
  let g = Wal.Group.create w in
  let is_log_io = function E.Error (E.Log_io _) -> true | _ -> false in
  (match Wal.Group.submit g [ note "doomed" ] with
  | () -> Alcotest.fail "submit over a crashed log must raise"
  | exception e -> Alcotest.(check bool) "raises Log_io" true (is_log_io e));
  (match Wal.Group.submit g [ note "after death" ] with
  | () -> Alcotest.fail "poisoned writer must refuse submits"
  | exception e ->
    Alcotest.(check bool) "later submit raises too" true (is_log_io e));
  let records, _ = Wal.read_all path in
  Alcotest.(check int) "nothing leaked to the log" 0 (List.length records)

(* ------------------------------------------------------------------ *)
(* End-to-end: concurrent clients against an in-process server         *)
(* ------------------------------------------------------------------ *)

let init_root () =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  db

let with_server ?(wal = true) f =
  let sock = fresh_sock "e2e" in
  let wal_path = if wal then Some (fresh_wal "e2e") else None in
  let t =
    Server.Daemon.start ~root:(init_root ())
      (Server.Daemon.config ~wal_path (`Unix sock))
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop t)
    (fun () -> f t (`Unix sock) wal_path)

let test_e2e_concurrent_sessions () =
  with_server (fun t addr wal_path ->
      let clients = 6 and per_client = 5 in
      let results = Array.make clients None in
      let ths =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                let user = Printf.sprintf "user%d" i in
                let c = Server.Client.connect addr in
                let sid = Server.Client.hello c ~user in
                for _ = 1 to per_client do
                  match Server.Client.exec c "SELECT * FROM patients;" with
                  | Ok text ->
                    if not (String.length text > 0) then
                      failwith "empty result"
                  | Error m -> failwith m
                done;
                Server.Client.quit c;
                results.(i) <- Some (sid, user))
              ())
      in
      List.iter Thread.join ths;
      (* Every client got a distinct session id. *)
      let pairs =
        Array.to_list results
        |> List.map (function
             | Some p -> p
             | None -> Alcotest.fail "client thread died")
      in
      let sids = List.map fst pairs in
      Alcotest.(check int) "distinct session ids" clients
        (List.length (List.sort_uniq compare sids));
      let st = Server.Daemon.stats t in
      Alcotest.(check int) "every statement served"
        (clients * per_client)
        st.Server.Daemon.statements_served;
      (* Shut down (drains the WAL), then audit the evidence. *)
      Server.Daemon.stop t;
      let wal_path = Option.get wal_path in
      let records, r = Wal.read_all wal_path in
      Alcotest.(check bool) "log clean after shutdown" false r.Wal.corrupt;
      Alcotest.(check int) "no torn tail" 0 r.Wal.truncated_bytes;
      (* Each session's ACCESSED evidence is present, complete, and
         stamped with the right (session, user) pair. *)
      List.iter
        (fun (sid, user) ->
          let mine =
            List.filter
              (function
                | Wal.Accessed { session; user = u; complete; _ } ->
                  session = sid && u = user && complete
                | _ -> false)
              records
          in
          Alcotest.(check int)
            (Printf.sprintf "ACCESSED evidence for %s (session %d)" user sid)
            per_client (List.length mine))
        pairs;
      (* Group commit did its job: fewer fsyncs than statements is not
         guaranteed under arbitrary scheduling, but at least every record
         is durable and batches never exceeded the queue. *)
      match st.Server.Daemon.group with
      | None -> Alcotest.fail "server should have a group writer"
      | Some gs ->
        Alcotest.(check bool)
          "fsyncs did not exceed submits" true
          (gs.Wal.Group.s_fsyncs <= gs.Wal.Group.s_submits + 1))

let test_e2e_session_isolation () =
  with_server (fun _t addr _wal ->
      let a = Server.Client.connect addr in
      let b = Server.Client.connect addr in
      ignore (Server.Client.hello a ~user:"alice");
      ignore (Server.Client.hello b ~user:"bob");
      (* Session a sets a row budget too small for the query; session b
         must be unaffected (budgets are per-session state). *)
      (match Server.Client.exec a "\\budget rows 2" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "budget command failed: %s" m);
      (match Server.Client.exec a "SELECT * FROM patients;" with
      | Ok _ -> Alcotest.fail "budgeted session should trip its guard"
      | Error m ->
        Alcotest.(check bool)
          "budget error is structured" true
          (String.length m > 0));
      (match Server.Client.exec b "SELECT * FROM patients;" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "unbudgeted session failed: %s" m);
      (* Per-session \session reports distinct identities. *)
      let banner c =
        match Server.Client.exec c "\\session" with
        | Ok s -> s
        | Error m -> Alcotest.failf "\\session failed: %s" m
      in
      Alcotest.(check bool)
        "sessions report distinct identities" true
        (banner a <> banner b);
      Server.Client.quit a;
      Server.Client.quit b)

let test_e2e_statement_errors_keep_session () =
  with_server (fun _t addr _wal ->
      let c = Server.Client.connect addr in
      ignore (Server.Client.hello c ~user:"carol");
      (match Server.Client.exec c "SELECT nonsense FROM nowhere;" with
      | Ok _ -> Alcotest.fail "bad query should fail"
      | Error m ->
        Alcotest.(check bool)
          "error line is structured" true
          (String.length m >= 6 && String.sub m 0 6 = "error:"));
      (* The session survives the failure. *)
      (match Server.Client.exec c "SELECT name FROM patients;" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "session should survive an error: %s" m);
      (* Server-side-only commands are refused but do not kill it. *)
      (match Server.Client.exec c "\\fault op 1 scan" with
      | Ok text ->
        Alcotest.(check bool)
          "wire-refused command says so" true
          (String.length text > 0)
      | Error m -> Alcotest.failf "\\fault refusal is not an error: %s" m);
      Server.Client.quit c)

(* Only the row and compiled engines exist: [\exec batch] over the wire
   answers with the usage line and the session keeps its engine. *)
let test_e2e_exec_batch_refused () =
  with_server (fun _t addr _wal ->
      let c = Server.Client.connect addr in
      ignore (Server.Client.hello c ~user:"dave");
      let exec line =
        match Server.Client.exec c line with
        | Ok text -> String.trim text
        | Error m -> Alcotest.failf "%s failed: %s" line m
      in
      Alcotest.(check string) "switch to compiled" "exec mode compiled"
        (exec "\\exec compiled");
      Alcotest.(check string) "batch is refused with the usage line"
        "usage: \\exec [row|compiled]" (exec "\\exec batch");
      Alcotest.(check string) "mode unchanged" "compiled" (exec "\\exec");
      Server.Client.quit c)

(* [\elide] is one of the shared meta-commands, so the wire has it: a
   valid mode switches the session and EXPLAIN shows the certified probe
   elided; a bad one answers the usage line and leaves the mode as it was. *)
let test_e2e_elide_over_wire () =
  with_server (fun _t addr _wal ->
      let c = Server.Client.connect addr in
      ignore (Server.Client.hello c ~user:"erin");
      let exec line =
        match Server.Client.exec c line with
        | Ok text -> String.trim text
        | Error m -> Alcotest.failf "%s failed: %s" line m
      in
      let explain () =
        exec "EXPLAIN SELECT name FROM patients WHERE name = 'Bob';"
      in
      Alcotest.(check string) "switch elision off" "elision mode off"
        (exec "\\elide off");
      Alcotest.(check bool) "probe kept while elision is off" false
        (Fixtures.contains (explain ()) "probe elided");
      Alcotest.(check string) "switch to certified" "elision mode certified"
        (exec "\\elide certified");
      Alcotest.(check bool) "EXPLAIN shows the probe elided" true
        (Fixtures.contains (explain ()) "probe elided: Independent");
      Alcotest.(check string) "bad mode answers usage"
        "usage: \\elide [off|certified]" (exec "\\elide bogus");
      Alcotest.(check string) "mode unchanged" "certified" (exec "\\elide");
      Server.Client.quit c)

(* A [-f] script is split once for both modes: meta-command lines at a
   statement boundary, statements cut where the lexer ends them (not at
   a ';' inside a literal or a comment), several to a line. Run through
   a local session and over the wire, it gives the same replies. *)
let script_text =
  "\\elide certified\n\
   CREATE TABLE s (id INT PRIMARY KEY, v TEXT); INSERT INTO s VALUES (1, 'a;b');\n\
   /* a comment; not a boundary */ NOTIFY 'x;y';\n\
   SELECT v FROM s WHERE id = 1;\n\
   SELECT v\n  FROM s WHERE id = 2;\n\
   \\plans\n"

let test_script_pieces () =
  let open Server.Session in
  let pieces = script script_text in
  Alcotest.(check int) "pieces" 7 (List.length pieces);
  (match pieces with
  | "\\elide certified" :: create :: insert :: notify :: _ ->
    Alcotest.(check bool) "two statements on one line" true
      (Fixtures.contains create "CREATE TABLE s"
      && insert = "INSERT INTO s VALUES (1, 'a;b');");
    Alcotest.(check bool) "comment kept with its statement" true
      (Fixtures.contains notify "NOTIFY 'x;y';")
  | _ -> Alcotest.fail "unexpected split");
  Alcotest.(check bool) "last is \\plans" true
    (List.nth pieces 6 = "\\plans");
  let replies send = List.map (fun p -> String.trim (send p)) pieces in
  let local =
    let session = of_db (init_root ()) in
    replies (dispatch session)
  in
  let remote =
    with_server (fun _t addr _wal ->
        let c = Server.Client.connect addr in
        ignore (Server.Client.hello c ~user:"fay");
        let r =
          replies (fun line ->
              match Server.Client.exec c line with
              | Ok text -> text
              | Error m -> Alcotest.failf "%s failed: %s" line m)
        in
        Server.Client.quit c;
        r)
  in
  Alcotest.(check (list string)) "same replies over the wire" local remote;
  Alcotest.(check string) "\\elide ran" "elision mode certified" (List.hd local);
  Alcotest.(check string) "the literal kept its ';'" "notify: x;y" (List.nth local 3);
  Alcotest.(check bool) "a shape, hit once" true
    (Fixtures.contains (List.nth local 6) "hits=1 rebuilds=0")

(* ------------------------------------------------------------------ *)
(* Exactly-once: resumable sessions and reply replay                    *)
(* ------------------------------------------------------------------ *)

(* A client that loses the response reconnects with the same token and
   resends the same seq: the server must replay the cached reply, not
   re-execute — one execution, one evidence record, two deliveries. *)
let test_resume_replays_lost_reply () =
  with_server (fun t addr wal_path ->
      let c1 = Server.Client.connect addr in
      let sid1 = Server.Client.hello ~token:"tok-replay" c1 ~user:"alice" in
      let r1 =
        match Server.Client.exec ~seq:1 c1 "SELECT * FROM patients;" with
        | Ok text -> text
        | Error m -> Alcotest.failf "seq 1 failed: %s" m
      in
      (* Simulate a lost reply: the client dies without acknowledging. *)
      Server.Client.close c1;
      let c2 = Server.Client.connect addr in
      let sid2 = Server.Client.hello ~token:"tok-replay" c2 ~user:"alice" in
      Alcotest.(check int) "same token, same session" sid1 sid2;
      (* Redelivery of seq 1 is answered from the reply cache. *)
      (match Server.Client.exec ~seq:1 c2 "SELECT * FROM patients;" with
      | Ok text -> Alcotest.(check string) "replayed reply is identical" r1 text
      | Error m -> Alcotest.failf "replay failed: %s" m);
      let st = Server.Daemon.stats t in
      Alcotest.(check int) "executed once" 1 st.Server.Daemon.statements_served;
      Alcotest.(check int) "replayed once" 1
        st.Server.Daemon.statements_replayed;
      (* The session then advances normally. *)
      (match Server.Client.exec ~seq:2 c2 "SELECT name FROM patients;" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "seq 2 failed: %s" m);
      (* Stale and gapped seqs are refused without executing. *)
      (match Server.Client.exec ~seq:1 c2 "SELECT * FROM patients;" with
      | Error m ->
        Alcotest.(check bool) "stale seq refused" true
          (String.length m > 0)
      | Ok _ -> Alcotest.fail "stale seq must not execute");
      (match Server.Client.exec ~seq:9 c2 "SELECT * FROM patients;" with
      | Error m ->
        Alcotest.(check bool) "seq gap refused" true (String.length m > 0)
      | Ok _ -> Alcotest.fail "gapped seq must not execute");
      let st = Server.Daemon.stats t in
      Alcotest.(check int) "stale/gap did not execute" 2
        st.Server.Daemon.statements_served;
      Server.Client.quit c2;
      (* The WAL holds exactly one complete evidence record per seq. *)
      Server.Daemon.stop t;
      let records, r = Wal.read_all (Option.get wal_path) in
      Alcotest.(check bool) "log clean" false r.Wal.corrupt;
      let evidence_for q =
        List.length
          (List.filter
             (function
               | Wal.Accessed { session; seq; complete; _ } ->
                 session = sid1 && seq = q && complete
               | _ -> false)
             records)
      in
      Alcotest.(check int) "seq 1 logged exactly once" 1 (evidence_for 1);
      Alcotest.(check int) "seq 2 logged exactly once" 1 (evidence_for 2))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* With max_waiting = 0 every statement is shed: the plain client sees
   the typed Overloaded response (as a protocol error), the retry client
   absorbs sheds until its shed budget runs out, and nothing executes —
   a shed statement leaves no evidence. *)
let test_overload_sheds_typed () =
  let sock = fresh_sock "shed" in
  let wal_path = fresh_wal "shed" in
  let t =
    Server.Daemon.start ~root:(init_root ())
      (Server.Daemon.config ~wal_path:(Some wal_path) ~max_waiting:0
         (`Unix sock))
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop t)
    (fun () ->
      let c = Server.Client.connect (`Unix sock) in
      ignore (Server.Client.hello c ~user:"alice");
      (match Server.Client.exec c "SELECT * FROM patients;" with
      | Ok _ | Error _ -> Alcotest.fail "statement must be shed"
      | exception Server.Client.Protocol_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "typed overload response (%s)" m)
          true
          (String.length m >= 10 && String.sub m 0 10 = "overloaded"));
      Server.Client.quit c;
      (* The retry layer absorbs sheds, then gives up rather than
         livelocking against a permanently saturated server. *)
      let rt =
        Server.Client.Retry.create ~max_attempts:2 ~base_delay_s:0.001
          ~max_delay_s:0.01 ~seed:7 (`Unix sock) ~user:"bob"
      in
      (match Server.Client.Retry.exec rt "SELECT * FROM patients;" with
      | Ok _ | Error _ -> Alcotest.fail "retry client must give up"
      | exception Server.Client.Retry.Gave_up _ ->
        Alcotest.(check bool) "sheds were absorbed first" true
          (Server.Client.Retry.sheds rt >= 2));
      Server.Client.Retry.quit rt;
      let st = Server.Daemon.stats t in
      Alcotest.(check bool) "sheds counted" true
        (st.Server.Daemon.statements_shed >= 2);
      Alcotest.(check int) "nothing executed" 0
        st.Server.Daemon.statements_served;
      Server.Daemon.stop t;
      let records, _ = Wal.read_all wal_path in
      Alcotest.(check int) "shed statements leave no evidence" 0
        (List.length records))

(* ------------------------------------------------------------------ *)
(* Wire codec fuzz (QCheck)                                            *)
(* ------------------------------------------------------------------ *)

(* The decoders are total: any byte string — random garbage, a truncated
   valid encoding, or a valid encoding with one byte flipped — yields
   [Ok] or [Error], never an exception. *)
let decode_total payload =
  let survives f =
    match f payload with Ok _ | Error _ -> true | exception _ -> false
  in
  survives Wire.decode_request && survives Wire.decode_response

let prop_fuzz_random_bytes =
  QCheck.Test.make ~count:500 ~name:"wire decoders are total on garbage"
    QCheck.(string_of_size (Gen.int_range 0 96))
    decode_total

(* A pool of valid encodings to truncate and mangle. *)
let valid_encodings (user, line, seq, n) =
  [
    Wire.encode_request (Wire.Hello { user; token = line });
    Wire.encode_request (Wire.Exec { seq = abs seq; line });
    Wire.encode_request Wire.Quit;
    Wire.encode_response (Wire.Greeting { session = abs seq; server = user });
    Wire.encode_response (Wire.Result line);
    Wire.encode_response (Wire.Failed user);
    Wire.encode_response (Wire.Overloaded { retry_after_ms = abs n });
    Wire.encode_response Wire.Goodbye;
  ]

let prop_fuzz_truncated =
  QCheck.Test.make ~count:200
    ~name:"wire decoders are total on truncated encodings"
    QCheck.(quad string string small_int small_int)
    (fun ((_, _, seq, n) as params) ->
      List.for_all
        (fun enc ->
          let len = String.length enc in
          let cut = if len = 0 then 0 else (abs seq + abs n) mod (len + 1) in
          decode_total (String.sub enc 0 cut))
        (valid_encodings params))

let prop_fuzz_mangled =
  QCheck.Test.make ~count:200
    ~name:"wire decoders are total on bit-flipped encodings"
    QCheck.(quad string string small_int small_int)
    (fun ((_, _, seq, n) as params) ->
      List.for_all
        (fun enc ->
          let len = String.length enc in
          if len = 0 then true
          else begin
            let b = Bytes.of_string enc in
            let pos = abs seq mod len in
            Bytes.set b pos
              (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (abs n mod 255))));
            decode_total (Bytes.to_string b)
          end)
        (valid_encodings params))

let prop_roundtrip_any_exec =
  QCheck.Test.make ~count:200 ~name:"wire exec round-trips any line"
    QCheck.(pair string small_int)
    (fun (line, seq) ->
      let req = Wire.Exec { seq = abs seq; line } in
      Wire.decode_request (Wire.encode_request req) = Ok req)

(* ------------------------------------------------------------------ *)
(* Chaos matrix: exactly-once under drops, delays, truncation, severs  *)
(* ------------------------------------------------------------------ *)

(* One seeded chaos run: server + proxy + retrying clients, each client
   recording the (session, seq) of every acknowledged statement. Every
   fault schedule is a pure function of the seed, so a failing seed
   replays exactly. Returns (errors, acked keys, complete evidence keys,
   recovery, proxy fault stats). *)
let chaos_run ~seed ~clients ~per_client =
  let srv_sock = fresh_sock (Printf.sprintf "cs%d" seed) in
  let proxy_sock = fresh_sock (Printf.sprintf "cp%d" seed) in
  let wal_path = fresh_wal (Printf.sprintf "chaos%d" seed) in
  let t =
    Server.Daemon.start ~root:(init_root ())
      (Server.Daemon.config ~wal_path:(Some wal_path)
         ~max_segment_size:4096 (`Unix srv_sock))
  in
  let spec =
    {
      Server.Chaos.p_drop = 0.06;
      p_delay = 0.08;
      delay_s = 0.01;
      p_truncate = 0.04;
      p_sever = 0.04;
    }
  in
  let proxy =
    Server.Chaos.start ~spec ~seed ~listen:(`Unix proxy_sock)
      ~upstream:(`Unix srv_sock) ()
  in
  let acked = Array.make clients [] in
  let errors = Array.make clients [] in
  let ths =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            let rt =
              Server.Client.Retry.create ~max_attempts:10 ~base_delay_s:0.005
                ~max_delay_s:0.05 ~recv_timeout_s:0.12
                ~seed:((seed * 100) + i)
                ~token:(Printf.sprintf "chaos-%d-%d" seed i)
                (`Unix proxy_sock)
                ~user:(Printf.sprintf "user%d" i)
            in
            for _ = 1 to per_client do
              let seq = Server.Client.Retry.next_seq rt in
              match Server.Client.Retry.exec rt "SELECT * FROM patients;" with
              | Ok _ ->
                (* Acknowledged: must have executed and logged its
                   evidence exactly once. *)
                acked.(i) <- (Server.Client.Retry.session rt, seq) :: acked.(i)
              | Error m ->
                errors.(i) <-
                  Printf.sprintf "client %d seq %d failed: %s" i seq m
                  :: errors.(i)
              | exception Server.Client.Retry.Gave_up _ ->
                (* Unacknowledged is legal under chaos: at-most-once
                   still holds, but we can't claim the evidence exists.
                   The retry layer will reuse this seq; redelivery of the
                   same statement is replay-safe. *)
                ()
            done;
            Server.Client.Retry.quit rt)
          ())
  in
  List.iter Thread.join ths;
  Server.Chaos.stop proxy;
  let cstats = Server.Chaos.stats proxy in
  (* Daemon stop drains the group writer before closing the log. *)
  Server.Daemon.stop t;
  let records, r = Wal.read_all wal_path in
  let evidence =
    List.filter_map
      (function
        | Wal.Accessed { session; seq; complete = true; _ } ->
          Some (session, seq)
        | _ -> None)
      records
  in
  ( List.concat (Array.to_list errors),
    List.concat (Array.to_list acked),
    evidence,
    r,
    cstats )

(* Sweep the seed space. The invariant per seed: the WAL is recoverable,
   no (session, seq) evidence key appears twice (no double execution),
   and every acknowledged statement's key appears exactly once. Across
   the sweep, every fault kind must actually have fired. *)
let chaos_matrix ~seeds ~clients ~per_client () =
  let mu = Mutex.create () in
  let totals = ref (0, 0, 0, 0) in
  let total_acked = ref 0 in
  let failures = ref [] in
  let run seed =
    let errors, acked, evidence, r, cs =
      chaos_run ~seed ~clients ~per_client
    in
    let local = ref [] in
    let fail msg =
      local := Printf.sprintf "seed %d: %s" seed msg :: !local
    in
    List.iter fail errors;
    if r.Wal.corrupt then fail "WAL corrupt after recovery";
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun k ->
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      evidence;
    Hashtbl.iter
      (fun (s, q) n ->
        if n > 1 then
          fail
            (Printf.sprintf "evidence (session %d, seq %d) logged %d times" s q
               n))
      tbl;
    List.iter
      (fun (s, q) ->
        match Hashtbl.find_opt tbl (s, q) with
        | Some 1 -> ()
        | Some n ->
          fail
            (Printf.sprintf "acked (session %d, seq %d) has %d records" s q n)
        | None ->
          fail (Printf.sprintf "acked (session %d, seq %d) has no evidence" s q))
      acked;
    Mutex.lock mu;
    failures := !local @ !failures;
    total_acked := !total_acked + List.length acked;
    let d, dl, tr, sv = !totals in
    totals :=
      ( d + cs.Server.Chaos.s_dropped,
        dl + cs.Server.Chaos.s_delayed,
        tr + cs.Server.Chaos.s_truncated,
        sv + cs.Server.Chaos.s_severed );
    Mutex.unlock mu
  in
  (* Seeds run a few at a time: each has its own sockets, WAL and daemon,
     so parallelism only compresses wall-clock, never couples seeds. *)
  let rec take n = function
    | x :: tl when n > 0 ->
      let a, b = take (n - 1) tl in
      (x :: a, b)
    | rest -> ([], rest)
  in
  let rec batches = function
    | [] -> ()
    | l ->
      let now, later = take 4 l in
      let ths =
        List.map
          (fun seed ->
            Thread.create
              (fun () ->
                try run seed
                with e ->
                  Mutex.lock mu;
                  failures :=
                    Printf.sprintf "seed %d: exception %s" seed
                      (Printexc.to_string e)
                    :: !failures;
                  Mutex.unlock mu)
              ())
          now
      in
      List.iter Thread.join ths;
      batches later
  in
  batches (List.init seeds (fun i -> i + 1));
  (match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "chaos matrix violations:\n%s" (String.concat "\n" fs));
  Alcotest.(check bool) "statements were acknowledged" true (!total_acked > 0);
  let d, dl, tr, sv = !totals in
  Alcotest.(check bool)
    (Printf.sprintf
       "every fault kind fired (drop=%d delay=%d trunc=%d sever=%d)" d dl tr sv)
    true
    (d > 0 && dl > 0 && tr > 0 && sv > 0)

let test_chaos_matrix () = chaos_matrix ~seeds:40 ~clients:2 ~per_client:5 ()

let suite =
  [
    Alcotest.test_case "wire: request/response round-trip" `Quick
      test_wire_roundtrip;
    Alcotest.test_case "wire: decode errors" `Quick test_wire_decode_errors;
    Alcotest.test_case "wire: framed I/O round-trip" `Quick
      test_wire_frame_roundtrip;
    Alcotest.test_case "wire: truncated frames" `Quick
      test_wire_truncated_frame;
    Alcotest.test_case "wire: oversized frame rejection" `Quick
      test_wire_oversized_frame;
    Alcotest.test_case "group: K sessions share one fsync" `Quick
      test_group_single_fsync;
    Alcotest.test_case "group: backpressure blocks then drains" `Quick
      test_group_backpressure;
    Alcotest.test_case "group: failed flush poisons the writer" `Quick
      test_group_poisoned;
    Alcotest.test_case "e2e: concurrent sessions, durable evidence" `Quick
      test_e2e_concurrent_sessions;
    Alcotest.test_case "e2e: per-session state isolation" `Quick
      test_e2e_session_isolation;
    Alcotest.test_case "e2e: statement errors keep the session" `Quick
      test_e2e_statement_errors_keep_session;
    Alcotest.test_case "e2e: \\exec batch is refused, mode unchanged" `Quick
      test_e2e_exec_batch_refused;
    Alcotest.test_case "e2e: \\elide over the wire" `Quick
      test_e2e_elide_over_wire;
    Alcotest.test_case "script: meta-commands, literals, statements" `Quick
      test_script_pieces;
    Alcotest.test_case "retry: lost reply is replayed, not re-executed" `Quick
      test_resume_replays_lost_reply;
    Alcotest.test_case "overload: typed shed, no execution, no evidence"
      `Quick test_overload_sheds_typed;
    QCheck_alcotest.to_alcotest prop_fuzz_random_bytes;
    QCheck_alcotest.to_alcotest prop_fuzz_truncated;
    QCheck_alcotest.to_alcotest prop_fuzz_mangled;
    QCheck_alcotest.to_alcotest prop_roundtrip_any_exec;
    Alcotest.test_case "chaos: 40-seed exactly-once matrix" `Slow
      test_chaos_matrix;
  ]
