(* serverd child processes: spawned with explicit mode flags and a
   scrubbed environment, timed from spawn to first reply, checked
   against their startup log, and stopped with SIGTERM so the WAL drains
   and the stats line is printed. *)

(* Mode variables the library reads at start-up. The child sees none of
   them, so its flags alone decide its configuration. *)
let mode_vars = [ "EXEC_MODE"; "BATCH_MODE"; "STORAGE"; "ELISION"; "VERIFY" ]

let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) mode_vars)
         | None -> true)
  |> Array.of_list

type t = {
  pid : int;
  sock : string;
  wal : string;
  log : string;
  mutable running : bool;
}

let live : t list ref = ref []
let now = Clock.now

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM, then SIGKILL if the drain takes longer than [grace] s. *)
let stop ?(grace = 30.0) t =
  if t.running then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. grace in
    let rec wait () =
      match waitpid_noeintr [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_noeintr [] t.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
      | _ -> ()
    in
    wait ();
    t.running <- false;
    live := List.filter (fun p -> p != t) !live
  end

let stop_all () = List.iter (fun t -> stop ~grace:5.0 t) !live

(* Spawn serverd as [name] (socket, WAL and log named after it, in the
   current directory) and connect once it answers. Returns the process,
   the greeted connection and the seconds from spawn to first reply:
   TPC-H load, init script and WAL open included. *)
let start ~exe ~name args =
  let sock = name ^ ".sock" and wal = name ^ ".wal" and log = name ^ ".log" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ sock; wal; log ];
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list ((exe :: [ "--socket"; sock; "--wal"; wal ]) @ args) in
  let t0 = now () in
  let pid = Unix.create_process_env exe argv (clean_env ()) devnull fd fd in
  Unix.close fd;
  Unix.close devnull;
  let t = { pid; sock; wal; log; running = true } in
  live := t :: !live;
  let deadline = t0 +. 120.0 in
  let rec attach () =
    match Conn.connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match waitpid_noeintr [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        t.running <- false;
        failwith
          (Printf.sprintf "serverd (%s) exited during start-up:\n%s" name
             (read_file log)));
      if now () > deadline then failwith "serverd did not start within 120 s";
      Unix.sleepf 0.001;
      attach ()
  in
  let c = attach () in
  Conn.hello c ~user:"perfbench";
  let setup_s = now () -. t0 in
  (t, c, setup_s)

(* Abort unless the startup log confirms every requested mode and the
   server holds exactly the audit expressions and triggers named (as
   listed by its \audits and \triggers commands). serverd may answer
   before it has logged its last start-up line, so the log is read again
   for a few seconds before a line counts as missing. *)
let confirm t c ~storage ~init ~audits ~triggers =
  let lines =
    [
      Printf.sprintf "storage mode %s" storage;
      "exec mode compiled";
      "certified probe elision on";
      "loaded TPC-H sf=0.01";
      "fail-closed";
    ]
    @
    match init with
    | Some (path, n) -> [ Printf.sprintf "init script %s: %d statements" path n ]
    | None -> []
  in
  let listed cmd =
    match Conn.exec c cmd with
    | _, Conn.Ok "" -> []
    | _, Conn.Ok text ->
      String.split_on_char '\n' text
      |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
      |> List.sort compare
    | _ -> failwith (cmd ^ " failed")
  in
  if listed "\\audits" <> List.sort compare audits
     || listed "\\triggers" <> List.sort compare triggers
  then
    failwith
      (Printf.sprintf "serverd %s does not hold audits [%s] and triggers [%s]" t.sock
         (String.concat ", " audits) (String.concat ", " triggers));
  let deadline = now () +. 5.0 in
  let rec check () =
    let log = read_file t.log in
    match List.find_opt (fun l -> not (contains log l)) lines with
    | None -> if init = None && contains log "init script" then failwith "unexpected init script"
    | Some l when now () > deadline ->
      failwith (Printf.sprintf "serverd startup log lacks %S:\n%s" l log)
    | Some _ ->
      Unix.sleepf 0.005;
      check ()
  in
  check ()

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  with
  | Some l -> Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc status"

type stats = {
  statements : int;
  shed : int;
  records : int;
  fsyncs : int;
}

(* The stats line serverd prints after its SIGTERM drain. *)
let stats t =
  let log = read_file t.log in
  match
    List.find_opt (fun l -> contains l "stats: sessions=") (String.split_on_char '\n' log)
  with
  | None -> failwith ("serverd printed no stats line:\n" ^ log)
  | Some l ->
    let i =
      let rec find i = if String.sub l i 7 = "stats: " then i else find (i + 1) in
      find 0
    in
    Scanf.sscanf
      (String.sub l i (String.length l - i))
      "stats: sessions=%d statements=%d shed=%d replayed=%d records=%d \
       batches=%d fsyncs=%d max_batch=%d"
      (fun _ statements shed _ records _ fsyncs _ ->
        { statements; shed; records; fsyncs })
