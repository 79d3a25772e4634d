(* serverd — the audit engine as a daemon.

   Listens on a Unix-domain socket (or TCP), serves the shell's
   statement surface over the length-prefixed wire protocol, and owns
   the durable audit log: every session's ACCESSED/trigger evidence is
   group-committed — batched across concurrent sessions into shared
   fsyncs — while each statement's results are withheld until its
   records are durable.

     serverd --socket /tmp/audit.sock --wal audit.wal --init schema.sql
     serverd --tcp 127.0.0.1:7878 --wal audit.wal --policy open

   SIGTERM/SIGINT trigger a clean shutdown: in-flight statements finish,
   the WAL drains, and a final stats line (sessions, statements, group
   batches, fsyncs) is printed — CI greps it. *)

let stop_requested = Atomic.make false

let log msg =
  Printf.printf "[serverd] %s\n%!" msg

let run_init db path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  let results = Db.Database.exec_script db content in
  log (Printf.sprintf "init script %s: %d statements" path (List.length results))

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | None -> None
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 -> Some (`Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> None)

let main socket tcp wal policy_open max_segment_size storage exec elide init
    tpch max_clients max_waiting statement_timeout =
  let listen =
    match tcp with
    | Some spec -> (
      match parse_tcp spec with
      | Some l -> l
      | None ->
        prerr_endline "serverd: --tcp expects HOST:PORT";
        exit 2)
    | None -> `Unix socket
  in
  let parse flag expects of_string =
    Option.map (fun s ->
        match of_string s with
        | Some v -> v
        | None ->
          Printf.eprintf "serverd: --%s expects %s\n" flag expects;
          exit 2)
  in
  let storage =
    parse "storage" "heap or columnar" Db.Config.storage_of_string storage
  in
  let exec = parse "exec" "row|compiled" Db.Config.exec_of_string exec in
  let config =
    Db.Config.
      {
        default with
        storage = Option.value storage ~default:default.storage;
        exec = Option.value exec ~default:default.exec;
        elision = (if elide then Elide_certified else Elide_off);
      }
  in
  (* Before --tpch/--init, so preloaded tables get the requested layout. *)
  let db = Db.Database.create ~config () in
  Option.iter
    (fun st -> log ("storage mode " ^ Db.Config.storage_to_string st))
    storage;
  Option.iter (fun m -> log ("exec mode " ^ Db.Config.exec_to_string m)) exec;
  if elide then log "certified probe elision on";
  (match tpch with
  | Some sf ->
    let sizes = Tpch.Dbgen.load db ~sf in
    log
      (Printf.sprintf "loaded TPC-H sf=%g: %d customers, %d orders" sf
         sizes.Tpch.Dbgen.customers sizes.Tpch.Dbgen.orders)
  | None -> ());
  (match init with
  | Some path -> (
    try run_init db path
    with e ->
      Printf.eprintf "serverd: init script failed: %s\n" (Printexc.to_string e);
      exit 1)
  | None -> ());
  let cfg =
    Server.Daemon.config ~wal_path:wal
      ~wal_policy:
        (if policy_open then Audit_log.Wal.Fail_open
         else Audit_log.Wal.Fail_closed)
      ?max_segment_size ~max_clients ~max_waiting
      ?statement_timeout_s:statement_timeout ~log listen
  in
  let t = Server.Daemon.start ~root:db cfg in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  log "shutdown requested";
  Server.Daemon.stop t;
  let s = Server.Daemon.stats t in
  (match s.Server.Daemon.group with
  | Some g ->
    log
      (Printf.sprintf
         "stats: sessions=%d statements=%d shed=%d replayed=%d records=%d \
          batches=%d fsyncs=%d max_batch=%d"
         s.Server.Daemon.sessions_opened s.Server.Daemon.statements_served
         s.Server.Daemon.statements_shed s.Server.Daemon.statements_replayed
         g.Audit_log.Wal.Group.s_records g.Audit_log.Wal.Group.s_batches
         g.Audit_log.Wal.Group.s_fsyncs g.Audit_log.Wal.Group.s_max_batch)
  | None ->
    log
      (Printf.sprintf "stats: sessions=%d statements=%d (no audit log)"
         s.Server.Daemon.sessions_opened s.Server.Daemon.statements_served));
  0

open Cmdliner

let socket =
  let doc = "Listen on the Unix-domain socket $(docv)." in
  Arg.(
    value
    & opt string "serverd.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let tcp =
  let doc = "Listen on TCP $(docv) (HOST:PORT) instead of a Unix socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"ADDR" ~doc)

let wal =
  let doc =
    "Durable audit log path. Evidence from every session is group-committed \
     here; without it the server runs unaudited."
  in
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"PATH" ~doc)

let policy_open =
  let doc =
    "Fail-open audit policy: a failed log write raises an alarm but results \
     flow (default is fail-closed: results are withheld)."
  in
  Arg.(value & flag & info [ "fail-open" ] ~doc)

let storage =
  let doc =
    "Storage engine for tables the server creates ($(docv) is heap or \
     columnar; default heap)."
  in
  Arg.(value & opt (some string) None & info [ "storage" ] ~docv:"MODE" ~doc)

let exec =
  let doc =
    "Execution engine for every served session ($(docv) is row or \
     compiled; default row)."
  in
  Arg.(value & opt (some string) None & info [ "exec" ] ~docv:"MODE" ~doc)

let elide =
  let doc =
    "Certified probe elision: statically analyze every plan for \
     trigger–query independence and strip audit probes whose certificate \
     replays (default off)."
  in
  Arg.(value & flag & info [ "elide" ] ~doc)

let init =
  let doc = "Execute the SQL script $(docv) before accepting connections." in
  Arg.(value & opt (some file) None & info [ "init" ] ~docv:"FILE" ~doc)

let tpch =
  let doc = "Preload the TPC-H benchmark at scale factor $(docv)." in
  Arg.(value & opt (some float) None & info [ "tpch" ] ~docv:"SF" ~doc)

let max_clients =
  let doc = "Refuse connections beyond $(docv) concurrent clients." in
  Arg.(value & opt int 64 & info [ "max-clients" ] ~docv:"N" ~doc)

let max_segment_size =
  let doc =
    "Segment the audit log, rotating the active segment past $(docv) bytes. \
     Recovery then replays only the manifest and the tail segment (bounded), \
     and ENOSPC degrades by rotating before the policy kicks in."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "max-segment-size" ] ~docv:"BYTES" ~doc)

let max_waiting =
  let doc =
    "Admission-control threshold: shed statements with a typed Overloaded \
     (retry-after) response once $(docv) statements are queued for \
     execution."
  in
  Arg.(value & opt int 32 & info [ "max-waiting" ] ~docv:"N" ~doc)

let statement_timeout =
  let doc =
    "Server-wide per-statement deadline in seconds (caps each session's own \
     timeout)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "statement-timeout" ] ~docv:"SECONDS" ~doc)

let cmd =
  let doc = "audit server daemon with WAL group commit" in
  Cmd.v
    (Cmd.info "serverd" ~doc)
    Term.(
      const main $ socket $ tcp $ wal $ policy_open $ max_segment_size
      $ storage $ exec $ elide $ init $ tpch $ max_clients $ max_waiting
      $ statement_timeout)

let () = exit (Cmd.eval' cmd)
