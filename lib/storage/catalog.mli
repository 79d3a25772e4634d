(** The catalog: a case-insensitive namespace of tables shared by every
    session, seen through a per-session scope of bound relations (a
    trigger action's [accessed]/[new]/[old]) that lookups consult first. *)

type t

exception Unknown_table of string
exception Table_exists of string

val create : unit -> t

(** The same tables, with an empty scope of its own. *)
val session : t -> t

val mem : t -> string -> bool

(** Add a table; raises {!Table_exists} on name clashes. *)
val add : t -> Table.t -> unit

(** Raises {!Unknown_table}. *)
val remove : t -> string -> unit

(** Raises {!Unknown_table}. *)
val find : t -> string -> Table.t

val find_opt : t -> string -> Table.t option

(** Sorted names of the shared tables. *)
val names : t -> string list

(** Bind [table] under its name for the dynamic extent of [f], shadowing
    an outer binding of the name until [f] returns or raises. *)
val bind : t -> Table.t -> (unit -> 'a) -> 'a

(** Drop every binding (repair after a leaked trigger action). *)
val clear_scope : t -> unit
