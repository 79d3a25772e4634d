(** Plain-text rendering of experiment tables (one per paper figure). *)

val print_title : string -> unit
val print_note : string -> unit

(** Aligned table: numbers right-aligned, text left-aligned. *)
val print_table : headers:string list -> string list list -> unit

val pct : float -> string
val secs : float -> string
val int : int -> string
