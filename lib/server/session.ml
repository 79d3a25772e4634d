(* One served session: a connection's private view of the shared engine.

   A session owns a [Db.Database.create_session] handle — shared catalog,
   audit expressions and triggers; private user, logical clock, budgets,
   notifications, alarms and pending evidence. [dispatch] mirrors the
   shell's statement surface (SQL plus a backslash-command subset) but
   renders everything to a string so it can be framed as a wire response;
   errors propagate as exceptions for the server loop to render.

   Commands that manage process-global state from the shell (\log open,
   \fault, \tpch, \dump to a file, \q) are not available over the wire:
   the audit log belongs to the server and fault injection or bulk loads
   are operator actions, not client ones. *)

type t = {
  id : int;
  db : Db.Database.t;
  mutable queries : int;  (* statements dispatched, including failed ones *)
  mutable errors : int;
}

let create ~id ~root =
  { id; db = Db.Database.create_session ~session_id:id root; queries = 0;
    errors = 0 }

let id t = t.id
let db t = t.db
let user t = Db.Database.user t.db

let usage_commands =
  "commands: \\tables \\audits \\triggers \\notifications \\accessed \
   \\alarms \\plan <sql> \\analyze <sql> \\verify <sql|mode <off|warn|strict>> \
   \\heuristic <leaf|hcn|highest> \\exec [row|compiled] \
   \\storage [heap|columnar] \\user <name> \
   \\timeout <s|off> \\budget <rows|mem> <n|off> \\session \\log status \
   (\\q quits client-side)"

let opt_of = function
  | "off" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok (Some n)
    | _ -> Error ())

let lines ls = String.concat "\n" ls

let handle_command t line =
  let db = t.db in
  let parts = String.split_on_char ' ' (String.trim line) in
  match parts with
  | [ "\\tables" ] -> lines (Storage.Catalog.names (Db.Database.catalog db))
  | [ "\\audits" ] ->
    lines
      (List.map
         (fun n ->
           let v = Db.Database.audit_view db n in
           Printf.sprintf "%s (%d sensitive IDs)" n
             (Audit_core.Sensitive_view.cardinality v))
         (Db.Database.audit_names db))
  | [ "\\triggers" ] ->
    lines
      (List.map
         (fun (tr : Audit_core.Trigger.t) ->
           let ev =
             match tr.Audit_core.Trigger.event with
             | Sql.Ast.On_access a -> "ON ACCESS TO " ^ a
             | Sql.Ast.On_dml (tb, e) ->
               Printf.sprintf "ON %s AFTER %s" tb
                 (match e with
                 | Sql.Ast.Ev_insert -> "INSERT"
                 | Sql.Ast.Ev_update -> "UPDATE"
                 | Sql.Ast.Ev_delete -> "DELETE")
           in
           Printf.sprintf "%s %s" tr.Audit_core.Trigger.name ev)
         (Audit_core.Trigger.all (Db.Database.trigger_manager db)))
  | [ "\\notifications" ] ->
    let out = lines (Db.Database.notifications db) in
    Db.Database.clear_notifications db;
    out
  | [ "\\accessed" ] ->
    lines
      (List.map
         (fun (audit, ids) ->
           Printf.sprintf "%s: %s" audit
             (String.concat ", " (List.map Storage.Value.to_string ids)))
         (Db.Database.last_accessed db))
  | [ "\\alarms" ] ->
    let out = lines (Db.Database.alarms db) in
    Db.Database.clear_alarms db;
    out
  | "\\plan" :: rest ->
    Plan.Logical.to_string (Db.Database.plan_sql db (String.concat " " rest))
  | "\\analyze" :: rest ->
    Db.Database.result_to_string
      (Db.Database.exec db ("EXPLAIN ANALYZE " ^ String.concat " " rest))
  | [ "\\verify"; "mode"; m ] -> (
    match String.lowercase_ascii m with
    | "off" ->
      Db.Database.set_verify_plans db Db.Database.Off;
      "verify mode off"
    | "warn" ->
      Db.Database.set_verify_plans db Db.Database.Warn;
      "verify mode warn"
    | "strict" ->
      Db.Database.set_verify_plans db Db.Database.Strict;
      "verify mode strict"
    | _ -> "usage: \\verify mode <off|warn|strict>")
  | "\\verify" :: rest when rest <> [] ->
    Analysis.Plan_verify.report
      (Db.Database.verify_sql db (String.concat " " rest))
  | [ "\\heuristic"; h ] -> (
    match String.lowercase_ascii h with
    | "leaf" ->
      Db.Database.set_heuristic db Audit_core.Placement.Leaf;
      "heuristic leaf"
    | "hcn" ->
      Db.Database.set_heuristic db Audit_core.Placement.Hcn;
      "heuristic hcn"
    | "highest" ->
      Db.Database.set_heuristic db Audit_core.Placement.Highest;
      "heuristic highest"
    | _ -> "unknown heuristic (leaf | hcn | highest)")
  | [ "\\exec" ] -> (
    match Db.Database.exec_mode db with
    | `Row -> "row"
    | `Compiled -> "compiled")
  | [ "\\exec"; m ] -> (
    match String.lowercase_ascii m with
    | "row" ->
      Db.Database.set_exec_mode db `Row;
      "exec mode row"
    | "compiled" ->
      Db.Database.set_exec_mode db `Compiled;
      "exec mode compiled"
    | _ -> "usage: \\exec [row|compiled]")
  | [ "\\storage" ] ->
    Storage.Table.storage_to_string (Db.Database.storage_mode db)
  | [ "\\storage"; m ] -> (
    match Storage.Table.storage_of_string (String.lowercase_ascii m) with
    | Some st ->
      Db.Database.set_storage_mode db st;
      Printf.sprintf "storage mode %s" (Storage.Table.storage_to_string st)
    | None -> "usage: \\storage [heap|columnar]")
  | [ "\\user"; u ] ->
    Db.Database.set_user db u;
    Printf.sprintf "user %s" u
  | [ "\\timeout"; s ] -> (
    match s with
    | "off" ->
      Db.Database.set_timeout db None;
      "timeout off"
    | _ -> (
      match float_of_string_opt s with
      | Some sec when sec > 0.0 ->
        Db.Database.set_timeout db (Some sec);
        Printf.sprintf "timeout %gs" sec
      | _ -> "usage: \\timeout <seconds|off>"))
  | [ "\\budget"; which; n ] -> (
    match (which, opt_of n) with
    | "rows", Ok b ->
      Db.Database.set_row_budget db b;
      "row budget set"
    | "mem", Ok b ->
      Db.Database.set_mem_budget db b;
      "mem budget set"
    | _ -> "usage: \\budget <rows|mem> <n|off>")
  | [ "\\session" ] ->
    Printf.sprintf "session %d user=%s queries=%d errors=%d" t.id
      (Db.Database.user db) t.queries t.errors
  | [ "\\log"; "status" ] ->
    if Db.Database.deferred_evidence db then
      Printf.sprintf "audit log: server-managed (group commit), session %d"
        t.id
    else "no audit log attached"
  | ("\\log" | "\\fault" | "\\tpch" | "\\dump") :: _ ->
    Printf.sprintf "%s is not available over the wire (server-side only)"
      (List.hd parts)
  | _ -> usage_commands

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
