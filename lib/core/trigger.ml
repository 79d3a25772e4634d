(** Trigger definitions (§II-C).

    A SELECT trigger fires after a query that accessed rows of its audit
    expression; its action is a SQL fragment that can read the per-query
    [ACCESSED] relation. DML triggers ([ON <table> AFTER INSERT/...]) are
    the classic kind, kept so SELECT-trigger actions can cascade into them
    (the paper's [Notify] example). Execution lives in [lib/db]; this module
    is the registry. *)

type t = {
  name : string;
  event : Sql.Ast.trigger_event;
  timing : Sql.Ast.trigger_timing;
  body : Sql.Ast.statement list;
}

let eq_name a b = String.lowercase_ascii a = String.lowercase_ascii b

type manager = { mutable triggers : t list }

let create_manager () = { triggers = [] }

exception Trigger_exists of string
exception Unknown_trigger of string

let add m (t : t) =
  if List.exists (fun x -> eq_name x.name t.name) m.triggers then
    raise (Trigger_exists t.name);
  m.triggers <- m.triggers @ [ t ]

let remove m name =
  if not (List.exists (fun x -> eq_name x.name name) m.triggers) then
    raise (Unknown_trigger name);
  m.triggers <- List.filter (fun x -> not (eq_name x.name name)) m.triggers

let all m = m.triggers

(** Triggers watching a given audit expression, optionally restricted to a
    firing time. *)
let on_access ?timing m ~audit_name =
  List.filter
    (fun t ->
      (match t.event with
      | Sql.Ast.On_access a -> eq_name a audit_name
      | Sql.Ast.On_dml _ -> false)
      && match timing with None -> true | Some tm -> t.timing = tm)
    m.triggers

(** Triggers watching a table, optionally restricted to one DML event. *)
let on_dml ?event m ~table =
  List.filter
    (fun t ->
      match t.event with
      | Sql.Ast.On_dml (tb, ev) ->
        eq_name tb table && (match event with None -> true | Some e -> ev = e)
      | Sql.Ast.On_access _ -> false)
    m.triggers

(** Audit expressions referenced by any registered SELECT trigger. *)
let watched_audits m =
  List.filter_map
    (fun t ->
      match t.event with
      | Sql.Ast.On_access a -> Some (String.lowercase_ascii a)
      | Sql.Ast.On_dml _ -> None)
    m.triggers
  |> List.sort_uniq String.compare
