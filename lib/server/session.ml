(* One served session: a connection's private view of the shared engine.

   A session owns a [Db.Database.create_session] handle — shared catalog,
   audit expressions and triggers; private user, logical clock, budgets,
   notifications, alarms and pending evidence. [dispatch] runs SQL and
   the backslash meta-commands, rendering everything to a string so it
   can be framed as a wire response; errors propagate as exceptions for
   the server loop to render.

   [command] is the one meta-command interpreter: the local shell runs
   it too, and adds only its process-local commands on top; [script]
   splits a [-f] script for it and for a client of the server.
     \tables \audits \triggers     list the catalog
     \notifications \alarms        show (and clear) NOTIFY output / alarms
     \accessed                     ACCESSED state of the last SELECT
     \plan <sql>                   the instrumented logical plan
     \analyze <sql>                EXPLAIN ANALYZE
     \verify <sql>                 plan-verifier report plus elision
                                   certificates; nothing is executed
     \verify mode <off|warn|strict>  verification policy
     \elide [off|certified]        show or set certified probe elision
     \exec [row|compiled]          show or set the execution engine
     \storage [heap|columnar]      show or set the storage of new tables
     \heuristic <leaf|hcn|highest> placement heuristic
     \user <name>                  session user
     \timeout <s|off>              per-query wall-clock budget
     \budget <rows|mem> <n|off>    per-query scan / materialization budget
     \session                      session id, user and counters
     \plans                        cached statement shapes: hits, rebuilds
                                   and the last rebuild's reason

   Not available over the wire: \log (except \log status), \fault, \tpch,
   \dump and \q. The audit log belongs to the server, fault injection and
   bulk loads are operator actions, and \q is the client's own. *)

type t = {
  id : int;
  db : Db.Database.t;
  mutable queries : int;  (* statements dispatched, including failed ones *)
  mutable errors : int;
}

let of_db db =
  { id = Db.Database.session_id db; db; queries = 0; errors = 0 }

let create ~id ~root = of_db (Db.Database.create_session ~session_id:id root)

let id t = t.id
let db t = t.db
let user t = Db.Database.user t.db

let shared_usage =
  "\\tables \\audits \\triggers \\notifications \\accessed \\alarms \
   \\plan <sql> \\analyze <sql> \\verify <sql|mode <off|warn|strict>> \
   \\elide [off|certified] \\exec [row|compiled] \\storage [heap|columnar] \
   \\heuristic <leaf|hcn|highest> \\user <name> \\timeout <s|off> \
   \\budget <rows|mem> <n|off> \\session \\plans"

let usage_commands =
  "commands: " ^ shared_usage ^ " \\log status (\\q quits client-side)"

let opt_of = function
  | "off" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok (Some n)
    | _ -> Error ())

let lines ls = String.concat "\n" ls

(* Show or set one configuration axis: [\cmd] prints the current value,
   [\cmd v] parses [v] with the axis's [Db.Config] parser. *)
let axis ~name ~usage ~get ~set ~to_string ~of_string = function
  | [] -> Some (to_string get)
  | [ v ] ->
    Some
      (match of_string v with
      | Some m ->
        set m;
        Printf.sprintf "%s mode %s" name (to_string m)
      | None -> usage)
  | _ -> None

(* The shared meta-commands, split into words; [None] when [parts] is
   not one of them. *)
let command t parts =
  let db = t.db in
  let module D = Db.Database in
  let module C = Db.Config in
  match parts with
  | [ "\\tables" ] -> Some (lines (Storage.Catalog.names (D.catalog db)))
  | [ "\\audits" ] ->
    Some
      (lines
         (List.map
            (fun n ->
              Printf.sprintf "%s (%d sensitive IDs)" n
                (Audit_core.Sensitive_view.cardinality (D.audit_view db n)))
            (D.audit_names db)))
  | [ "\\triggers" ] ->
    Some
      (lines
         (List.map
            (fun (tr : Audit_core.Trigger.t) ->
              let ev =
                match tr.event with
                | Sql.Ast.On_access a -> "ON ACCESS TO " ^ a
                | Sql.Ast.On_dml (tb, e) ->
                  Printf.sprintf "ON %s AFTER %s" tb
                    (match e with
                    | Sql.Ast.Ev_insert -> "INSERT"
                    | Sql.Ast.Ev_update -> "UPDATE"
                    | Sql.Ast.Ev_delete -> "DELETE")
              in
              Printf.sprintf "%s %s" tr.name ev)
            (Audit_core.Trigger.all (D.trigger_manager db))))
  | [ "\\notifications" ] ->
    let out = lines (D.notifications db) in
    D.clear_notifications db;
    Some out
  | [ "\\accessed" ] ->
    Some
      (lines
         (List.map
            (fun (audit, ids) ->
              Printf.sprintf "%s: %s" audit
                (String.concat ", " (List.map Storage.Value.to_string ids)))
            (D.last_accessed db)))
  | [ "\\alarms" ] ->
    let out = lines (D.alarms db) in
    D.clear_alarms db;
    Some out
  | "\\plan" :: rest ->
    Some (Plan.Logical.to_string (D.plan_sql db (String.concat " " rest)))
  | "\\analyze" :: rest ->
    Some
      (D.result_to_string
         (D.exec db ("EXPLAIN ANALYZE " ^ String.concat " " rest)))
  | "\\verify" :: "mode" :: arg ->
    axis ~name:"verify" ~usage:"usage: \\verify mode <off|warn|strict>"
      ~get:(D.verify_plans_mode db) ~set:(D.set_verify_plans db)
      ~to_string:C.verify_to_string ~of_string:C.verify_of_string arg
  | "\\verify" :: rest when rest <> [] ->
    let report =
      Analysis.Plan_verify.report (D.verify_sql db (String.concat " " rest))
    in
    Some (report ^ D.elision_report db)
  | "\\elide" :: arg ->
    axis ~name:"elision" ~usage:"usage: \\elide [off|certified]"
      ~get:(D.elision_mode db) ~set:(D.set_elision_mode db)
      ~to_string:C.elision_to_string ~of_string:C.elision_of_string arg
  | "\\exec" :: arg ->
    axis ~name:"exec" ~usage:"usage: \\exec [row|compiled]"
      ~get:(D.exec_mode db) ~set:(D.set_exec_mode db)
      ~to_string:C.exec_to_string ~of_string:C.exec_of_string arg
  | "\\storage" :: arg ->
    axis ~name:"storage" ~usage:"usage: \\storage [heap|columnar]"
      ~get:(D.storage_mode db) ~set:(D.set_storage_mode db)
      ~to_string:C.storage_to_string ~of_string:C.storage_of_string arg
  | [ "\\heuristic"; h ] ->
    Some
      (match String.lowercase_ascii h with
      | "leaf" ->
        D.set_heuristic db Audit_core.Placement.Leaf;
        "heuristic leaf"
      | "hcn" ->
        D.set_heuristic db Audit_core.Placement.Hcn;
        "heuristic hcn"
      | "highest" ->
        D.set_heuristic db Audit_core.Placement.Highest;
        "heuristic highest"
      | _ -> "unknown heuristic (leaf | hcn | highest)")
  | [ "\\user"; u ] ->
    D.set_user db u;
    Some (Printf.sprintf "user %s" u)
  | [ "\\timeout"; s ] ->
    Some
      (match (s, float_of_string_opt s) with
      | "off", _ ->
        D.set_timeout db None;
        "timeout off"
      | _, Some sec when sec > 0.0 ->
        D.set_timeout db (Some sec);
        Printf.sprintf "timeout %gs" sec
      | _ -> "usage: \\timeout <seconds|off>")
  | [ "\\budget"; which; n ] ->
    Some
      (match (which, opt_of n) with
      | "rows", Ok b ->
        D.set_row_budget db b;
        "row budget set"
      | "mem", Ok b ->
        D.set_mem_budget db b;
        "mem budget set"
      | _ -> "usage: \\budget <rows|mem> <n|off>")
  | [ "\\session" ] ->
    Some
      (Printf.sprintf "session %d user=%s queries=%d errors=%d" t.id
         (D.user db) t.queries t.errors)
  | [ "\\plans" ] ->
    Some
      (lines
         (List.map
            (fun (s : D.shape_info) ->
              Printf.sprintf "hits=%d rebuilds=%d%s analysis=%s  %s" s.hits
                s.rebuilds
                (match s.reason with
                | Some r -> Printf.sprintf " (last: %s)" r
                | None -> "")
                s.analysis s.shape)
            (D.plan_shapes db)))
  | _ -> None

(* The wire's interpreter: the shared commands, [\log status], and a
   refusal for the commands that stay server-side. *)
let handle_command t line =
  let parts = String.split_on_char ' ' (String.trim line) in
  match command t parts with
  | Some out -> out
  | None -> (
    match parts with
    | [ "\\log"; "status" ] ->
      if Db.Database.deferred_evidence t.db then
        Printf.sprintf "audit log: server-managed (group commit), session %d"
          t.id
      else "no audit log attached"
    | ("\\log" | "\\fault" | "\\tpch" | "\\dump") :: _ ->
      Printf.sprintf "%s is not available over the wire (server-side only)"
        (List.hd parts)
    | _ -> usage_commands)

(* Execute one line — backslash command or SQL statement. Raises on
   statement errors; the caller harvests pending evidence either way.

   [?seq] pins the session's logical clock so the statement's evidence
   carries exactly the client-chosen sequence number: [exec] bumps
   [ctx.now] once per top-level statement, so setting it to [seq - 1]
   makes the stamped seq equal the wire seq. That stability across
   resends is what makes duplicate execution detectable in the WAL
   (same (session, seq, audit) key) and lets the reply cache equate
   "same seq" with "same statement". *)
let dispatch ?seq t line =
  (match seq with
  | Some s when s > 0 ->
    let ctx = Db.Database.context t.db in
    ctx.Exec.Exec_ctx.now <- s - 1
  | _ -> ());
  t.queries <- t.queries + 1;
  let trimmed = String.trim line in
  try
    if String.length trimmed > 0 && trimmed.[0] = '\\' then
      handle_command t trimmed
    else Db.Database.result_to_string (Db.Database.exec t.db line)
  with e ->
    t.errors <- t.errors + 1;
    raise e

(* Split a [-f] script into its meta-commands and SQL statements, in
   order. A line that starts with a backslash where a statement may
   begin is a meta-command; SQL is cut after each ';' the lexer reads
   outside a BEGIN or CASE ... END, so a line may hold several
   statements and a literal or comment may hold a ';'. Text the lexer
   cannot read yet (an open literal) waits for more lines; what is left
   at the end runs as one statement and reports its own error. *)
let script text =
  let pieces = ref [] and pending = ref "" in
  let tokens () =
    try Sql.Lexer.tokenize !pending with Sql.Lexer.Lex_error _ -> []
  in
  let cut () =
    let depth = ref 0 and start = ref 0 in
    List.iter
      (fun (l : Sql.Lexer.lexed) ->
        match l.token with
        | Sql.Token.Ident w -> (
          match String.uppercase_ascii w with
          | "BEGIN" | "CASE" -> incr depth
          | "END" -> decr depth
          | _ -> ())
        | Sql.Token.Semicolon when !depth <= 0 ->
          let stmt = String.sub !pending !start (l.pos + 1 - !start) in
          pieces := String.trim stmt :: !pieces;
          start := l.pos + 1
        | _ -> ())
      (tokens ());
    pending := String.sub !pending !start (String.length !pending - !start)
  in
  List.iter
    (fun line ->
      let line' = String.trim line in
      (* one token, Eof: nothing but blanks and comments is pending *)
      if line' <> "" && line'.[0] = '\\' && List.length (tokens ()) = 1
      then begin
        pending := "";
        pieces := line' :: !pieces
      end
      else begin
        pending := !pending ^ line ^ "\n";
        cut ()
      end)
    (String.split_on_char '\n' text);
  if List.length (tokens ()) <> 1 then
    pieces := String.trim !pending :: !pieces;
  List.rev !pieces

(* Render any engine exception as the structured error line the shell
   prints — this is what travels in a [Failed] frame. *)
let render_error = function
  | Db.Database.Db_error m -> Printf.sprintf "error: %s" m
  | Db.Database.Access_denied m -> Printf.sprintf "error: access denied: %s" m
  | Engine_core.Engine_error.Error e ->
    Printf.sprintf "error: %s" (Engine_core.Engine_error.to_string e)
  | Engine_core.Faultkit.Fault_injected m ->
    Printf.sprintf "error: injected fault: %s" m
  | Exec.Executor.Exec_error m -> Printf.sprintf "error: execution error: %s" m
  | Sys_error m -> Printf.sprintf "error: %s" m
  | e -> Printf.sprintf "error: unexpected: %s" (Printexc.to_string e)
