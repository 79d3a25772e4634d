(* Interactive SQL shell with SELECT triggers.

   Statements end with ';'. Backslash commands are those of a served
   session ({!Server.Session.command}: \tables, \plan, \verify, \elide,
   \exec, \storage, \timeout, ...) plus the process-local ones:
     \q                     quit
     \dump [file]           SQL dump of the database (to stdout or file)
     \tpch <sf>             load the TPC-H benchmark at scale factor <sf>
     \log open <path> [closed|open]   attach the durable audit log
     \log policy <closed|open>        fail-closed vs fail-open-with-alarm
     \log dump | status | close      inspect / detach the audit log
     \fault ...             arm deterministic faults (see \fault help)

   Every statement and command is dispatched inside an error guard: parse,
   bind and execution errors, access denials, guard cancellations and
   injected faults print a structured `error:` line and the session keeps
   going. *)

let usage_commands =
  "commands: \\q " ^ Server.Session.shared_usage
  ^ " \\dump [file] \\tpch <sf> \\log <open|policy|dump|status|close> \
     \\fault <...>"

let fault_usage =
  "usage: \\fault                      show the armed plan and fired points\n\
  \       \\fault op <n> <label>       fail the n-th getNext of operators\n\
  \                                   matching <label> (substring, * = any)\n\
  \       \\fault log <short|enospc|crash> [n]   fail the n-th log append\n\
  \       \\fault trigger <name>       fail on entry to a trigger body\n\
  \       \\fault seed <k>             arm the seeded random plan k\n\
  \       \\fault off                  disarm"

let report_error e = print_endline (Server.Session.render_error e)

(* Multi-line command output already ends in a newline. *)
let print_out s =
  if s = "" then ()
  else if s.[String.length s - 1] = '\n' then print_string s
  else print_endline s

(* Faults already armed accumulate: each \fault command appends a point. *)
let fault_points : Engine_core.Faultkit.point list ref = ref []

let arm_faults db points =
  fault_points := points;
  Engine_core.Faultkit.arm (Db.Database.faults db) points;
  match points with
  | [] -> print_endline "faults disarmed"
  | ps ->
    List.iter
      (fun p ->
        Printf.printf "armed: %s\n" (Engine_core.Faultkit.point_to_string p))
      ps

let handle_fault db args =
  let kit = Db.Database.faults db in
  match args with
  | [] ->
    List.iter
      (fun p ->
        Printf.printf "armed: %s\n" (Engine_core.Faultkit.point_to_string p))
      (Engine_core.Faultkit.armed_points kit);
    List.iter
      (fun s -> Printf.printf "fired: %s\n" s)
      (Engine_core.Faultkit.fired kit)
  | [ "off" ] -> arm_faults db []
  | "op" :: n :: label when label <> [] -> (
    match int_of_string_opt n with
    | Some at ->
      arm_faults db
        (!fault_points
        @ [ Engine_core.Faultkit.Op_next { op = String.concat " " label; at } ])
    | None -> print_endline fault_usage)
  | "log" :: kind :: rest -> (
    let at =
      match rest with
      | [ n ] -> int_of_string_opt n
      | [] -> Some 1
      | _ -> None
    in
    let fault =
      match kind with
      | "short" -> Some (Engine_core.Faultkit.Short_write 3)
      | "enospc" -> Some Engine_core.Faultkit.Enospc
      | "crash" -> Some Engine_core.Faultkit.Crash_before_sync
      | _ -> None
    in
    match (at, fault) with
    | Some at, Some fault ->
      arm_faults db
        (!fault_points @ [ Engine_core.Faultkit.Log_io { at; fault } ])
    | _ -> print_endline fault_usage)
  | [ "trigger"; name ] ->
    arm_faults db
      (!fault_points @ [ Engine_core.Faultkit.Trigger_body { name } ])
  | [ "seed"; k ] -> (
    match int_of_string_opt k with
    | Some seed ->
      arm_faults db
        (Engine_core.Faultkit.random_plan ~seed
           ~ops:[ "scan"; "filter"; "join"; "project"; "audit" ])
    | None -> print_endline fault_usage)
  | _ -> print_endline fault_usage

let handle_log db args =
  match args with
  | "open" :: path :: rest -> (
    let policy =
      match rest with
      | [] | [ "closed" ] -> Some Audit_log.Wal.Fail_closed
      | [ "open" ] -> Some Audit_log.Wal.Fail_open
      | _ -> None
    in
    match policy with
    | None -> print_endline "usage: \\log open <path> [closed|open]"
    | Some policy ->
      let r = Db.Database.attach_audit_log db ~policy path in
      Printf.printf
        "audit log %s attached (%s): %d records recovered, %d bytes truncated\n"
        path
        (Audit_log.Wal.policy_to_string policy)
        r.Audit_log.Wal.valid_records r.Audit_log.Wal.truncated_bytes)
  | [ "policy"; p ] -> (
    match (Db.Database.audit_log db, p) with
    | None, _ -> print_endline "no audit log attached"
    | Some w, "closed" -> Audit_log.Wal.set_policy w Audit_log.Wal.Fail_closed
    | Some w, "open" -> Audit_log.Wal.set_policy w Audit_log.Wal.Fail_open
    | Some _, _ -> print_endline "usage: \\log policy <closed|open>")
  | [ "dump" ] -> (
    match Db.Database.audit_log db with
    | None -> print_endline "no audit log attached"
    | Some w ->
      let records, _ = Audit_log.Wal.read_all (Audit_log.Wal.path w) in
      List.iter
        (fun r -> print_endline (Audit_log.Wal.record_to_string r))
        records)
  | [ "status" ] -> (
    match Db.Database.audit_log db with
    | None -> print_endline "no audit log attached"
    | Some w ->
      Printf.printf "audit log %s: %s, %s, %d records appended this session\n"
        (Audit_log.Wal.path w)
        (Audit_log.Wal.policy_to_string (Audit_log.Wal.policy w))
        (if Audit_log.Wal.is_open w then "open" else "DEAD")
        (Audit_log.Wal.appended w))
  | [ "close" ] -> Db.Database.detach_audit_log db
  | _ -> print_endline "usage: \\log <open|policy|dump|status|close>"

let handle_command session line =
  let db = Server.Session.db session in
  let parts = String.split_on_char ' ' (String.trim line) in
  match parts with
  | [ "\\q" ] -> raise Exit
  | "\\dump" :: rest -> (
    let text = Db.Database.dump db in
    match rest with
    | [] -> print_string text
    | path :: _ ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "dumped to %s\n" path)
  | "\\fault" :: args -> handle_fault db args
  | "\\log" :: args -> handle_log db args
  | [ "\\tpch"; sf ] -> (
    match float_of_string_opt sf with
    | Some sf ->
      let sizes = Tpch.Dbgen.load db ~sf in
      Printf.printf "loaded TPC-H sf=%g: %d customers, %d orders\n" sf
        sizes.Tpch.Dbgen.customers sizes.Tpch.Dbgen.orders
    | None -> print_endline "usage: \\tpch <scale factor>")
  | _ -> (
    match Server.Session.command session parts with
    | Some out -> print_out out
    | None -> print_endline usage_commands)

let repl db =
  let session = Server.Session.of_db db in
  let buf = Buffer.create 256 in
  print_endline "select_triggers shell — SQL statements end with ';'";
  print_endline usage_commands;
  (* The dispatch guard: nothing short of \q (or EOF) kills the session. *)
  let guarded f = try f () with Exit -> raise Exit | e -> report_error e in
  try
    while true do
      print_string (if Buffer.length buf = 0 then "sql> " else "  -> ");
      let line = try read_line () with End_of_file -> raise Exit in
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\'
      then guarded (fun () -> handle_command session trimmed)
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.length trimmed > 0
           && trimmed.[String.length trimmed - 1] = ';' then begin
          let sql = Buffer.contents buf in
          Buffer.clear buf;
          guarded (fun () -> print_endline (Server.Session.dispatch session sql))
        end
      end
    done
  with Exit -> print_endline "bye"

(* A script's meta-commands and statements ({!Server.Session.script}),
   for both [-f] modes. *)
let script_pieces path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  Server.Session.script content

(* Run each piece as the REPL would; the first error exits 1, \q ends
   the script. *)
let run_file db path =
  let session = Server.Session.of_db db in
  List.iter
    (fun piece ->
      match
        if piece.[0] = '\\' then handle_command session piece
        else print_endline (Server.Session.dispatch session piece)
      with
      | () -> ()
      | exception Exit -> exit 0
      | exception e ->
        report_error e;
        exit 1)
    (script_pieces path)

(* ------------------------------------------------------------------ *)
(* Client mode: the same REPL surface over a serverd connection        *)
(* ------------------------------------------------------------------ *)

(* "host:port" with a numeric port means TCP; anything else is a
   Unix-domain socket path. *)
let parse_connect spec : Server.Daemon.listen =
  match String.rindex_opt spec ':' with
  | Some i -> (
    match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
    | Some port when port > 0 ->
      let host = String.sub spec 0 i in
      `Tcp ((if host = "" then "127.0.0.1" else host), port)
    | _ -> `Unix spec)
  | None -> `Unix spec

(* The REPL and script runner talk through this little vtable so the
   plain connection and the retrying one share the same surface. With
   --retry, dropped connections and lost responses are absorbed: the
   client reconnects with its session token and resends the same
   statement seq, which the server either executes (first delivery) or
   answers from its reply cache — never both. *)
type remote = {
  send : string -> (string, string) result;
  finish : unit -> unit;
}

let plain_remote conn =
  { send = (fun line -> Server.Client.exec conn line);
    finish = (fun () -> Server.Client.quit conn) }

let retry_remote rt =
  { send = (fun line -> Server.Client.Retry.exec rt line);
    finish = (fun () -> Server.Client.Retry.quit rt) }

let client_send remote line =
  match remote.send line with
  | Ok text -> if text <> "" then print_endline text
  | Error m -> print_endline m
  | exception Server.Client.Protocol_error m ->
    Printf.printf "connection error: %s\n" m;
    raise Exit
  | exception Server.Client.Retry.Gave_up m ->
    Printf.printf "connection error: %s\n" m;
    raise Exit

let client_repl conn =
  let buf = Buffer.create 256 in
  print_endline "select_triggers shell — SQL statements end with ';'";
  print_endline "(connected to serverd; \\q quits, other commands run remotely)";
  try
    while true do
      print_string (if Buffer.length buf = 0 then "sql> " else "  -> ");
      let line = try read_line () with End_of_file -> raise Exit in
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\'
      then begin
        if trimmed = "\\q" then raise Exit;
        client_send conn trimmed
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.length trimmed > 0
           && trimmed.[String.length trimmed - 1] = ';' then begin
          let sql = Buffer.contents buf in
          Buffer.clear buf;
          client_send conn sql
        end
      end
    done
  with Exit ->
    conn.finish ();
    print_endline "bye"

(* Script mode over a connection: the server executes one statement or
   meta-command per request, split as local -f splits them. The first
   error prints the server's error line and exits 1, like local -f. *)
let client_run_file conn path =
  let stop code =
    conn.finish ();
    exit code
  in
  List.iter
    (fun piece ->
      if piece = "\\q" then stop 0;
      match conn.send piece with
      | Ok text -> if text <> "" then print_endline text
      | Error m ->
        print_endline m;
        stop 1
      | exception
          (Server.Client.Protocol_error m | Server.Client.Retry.Gave_up m) ->
        Printf.printf "connection error: %s\n" m;
        exit 1)
    (script_pieces path);
  stop 0

let client_main connect user file retry =
  let user = Option.value user ~default:"admin" in
  let addr = parse_connect connect in
  let remote =
    if retry then begin
      let rt =
        Server.Client.Retry.create ~recv_timeout_s:5.0
          ~seed:(Unix.getpid ()) addr ~user
      in
      (* Connect eagerly so an unreachable server fails fast with a
         clear message instead of burning the backoff schedule. *)
      (match Server.Client.Retry.exec rt "\\session" with
      | Ok s -> Printf.printf "connected (retrying): %s\n%!" s
      | Error m ->
        Printf.eprintf "shell: cannot connect to %s: %s\n" connect m;
        exit 1
      | exception (Server.Client.Retry.Gave_up m | Server.Client.Protocol_error m)
        ->
        Printf.eprintf "shell: cannot connect to %s: %s\n" connect m;
        exit 1
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "shell: cannot connect to %s: %s\n" connect
          (Unix.error_message e);
        exit 1);
      retry_remote rt
    end
    else begin
      let conn =
        try Server.Client.connect addr
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "shell: cannot connect to %s: %s\n" connect
            (Unix.error_message e);
          exit 1
      in
      let sid = Server.Client.hello conn ~user in
      Printf.printf "connected: session %d (user %s)\n%!" sid user;
      plain_remote conn
    end
  in
  match file with
  | Some path -> client_run_file remote path
  | None -> client_repl remote

let main file tpch_sf connect user retry =
  match connect with
  | Some spec -> client_main spec user file retry
  | None -> (
    let db = Db.Database.create () in
    (match user with Some u -> Db.Database.set_user db u | None -> ());
    (match tpch_sf with
    | Some sf ->
      let sizes = Tpch.Dbgen.load db ~sf in
      Printf.printf "loaded TPC-H sf=%g: %d customers, %d orders\n%!" sf
        sizes.Tpch.Dbgen.customers sizes.Tpch.Dbgen.orders
    | None -> ());
    match file with Some path -> run_file db path | None -> repl db)

open Cmdliner

let file =
  let doc = "Execute the SQL script $(docv) and exit (instead of the REPL)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let tpch =
  let doc = "Preload the TPC-H benchmark at scale factor $(docv)." in
  Arg.(value & opt (some float) None & info [ "tpch" ] ~docv:"SF" ~doc)

let connect =
  let doc =
    "Connect to a running serverd at $(docv) (a Unix socket path, or \
     HOST:PORT for TCP) instead of running an in-process engine."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let user_arg =
  let doc = "Session user name (default admin)." in
  Arg.(value & opt (some string) None & info [ "u"; "user" ] ~docv:"NAME" ~doc)

let retry_arg =
  let doc =
    "With --connect: survive dropped connections and lost responses by \
     reconnecting (same session token) and resending the in-flight \
     statement with its sequence number — the server deduplicates, so \
     each statement executes at most once. Also absorbs server overload \
     responses by waiting the hinted delay."
  in
  Arg.(value & flag & info [ "retry" ] ~doc)

let cmd =
  let doc = "interactive SQL shell with SELECT triggers for data auditing" in
  Cmd.v
    (Cmd.info "shell" ~doc)
    Term.(const main $ file $ tpch $ connect $ user_arg $ retry_arg)

let () = exit (Cmd.eval cmd)
