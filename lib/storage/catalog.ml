(** The catalog: tables shared by every session, and each session's scope
    of bound relations. A trigger action's [accessed]/[new]/[old] live in
    the scope of the session running it, so no other session or listing
    sees them. *)

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable scope : (string * Table.t) list;  (** innermost binding first *)
}

exception Unknown_table of string
exception Table_exists of string

let norm = String.lowercase_ascii
let create () = { tables = Hashtbl.create 32; scope = [] }
let session c = { tables = c.tables; scope = [] }

let find_opt c name =
  let n = norm name in
  match List.assoc_opt n c.scope with
  | Some _ as t -> t
  | None -> Hashtbl.find_opt c.tables n

let mem c name = find_opt c name <> None

let add c table =
  let n = norm (Table.name table) in
  if Hashtbl.mem c.tables n then raise (Table_exists (Table.name table));
  Hashtbl.replace c.tables n table

let remove c name =
  let n = norm name in
  if not (Hashtbl.mem c.tables n) then raise (Unknown_table name);
  Hashtbl.remove c.tables n

let find c name =
  match find_opt c name with Some t -> t | None -> raise (Unknown_table name)

let names c =
  Hashtbl.fold (fun _ t acc -> Table.name t :: acc) c.tables []
  |> List.sort String.compare

let bind c table f =
  let outer = c.scope in
  c.scope <- (norm (Table.name table), table) :: outer;
  Fun.protect ~finally:(fun () -> c.scope <- outer) f

let clear_scope c = c.scope <- []
