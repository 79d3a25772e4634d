(** Trigger definitions and registry (§II-C). Execution lives in
    [Db.Database]; this module only stores and selects triggers. *)

type t = {
  name : string;
  event : Sql.Ast.trigger_event;
  timing : Sql.Ast.trigger_timing;
  body : Sql.Ast.statement list;
}

type manager

exception Trigger_exists of string
exception Unknown_trigger of string

val create_manager : unit -> manager

(** Raises {!Trigger_exists} on duplicate names (case-insensitive). *)
val add : manager -> t -> unit

(** Raises {!Unknown_trigger}. *)
val remove : manager -> string -> unit

val all : manager -> t list

(** SELECT triggers watching an audit expression, optionally filtered by
    firing time. *)
val on_access :
  ?timing:Sql.Ast.trigger_timing -> manager -> audit_name:string -> t list

(** DML triggers watching a table, optionally restricted to one event. *)
val on_dml : ?event:Sql.Ast.dml_event -> manager -> table:string -> t list

(** Lower-cased names of audit expressions watched by any SELECT trigger —
    the set of expressions that must instrument incoming queries. *)
val watched_audits : manager -> string list
