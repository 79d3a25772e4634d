(** SQL values: dynamically-typed tuple cells with SQL comparison semantics
    and proleptic-Gregorian calendar dates. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1970-01-01 *)

exception Type_error of string

(** Raise {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Calendar arithmetic} *)

(** Days since the epoch for a civil date. *)
val days_of_civil : year:int -> month:int -> day:int -> int

(** Civil [(year, month, day)] for an epoch-day count. *)
val civil_of_days : int -> int * int * int

val is_leap_year : int -> bool

(** Number of days in a month. Raises {!Type_error} on an invalid month. *)
val days_in_month : int -> int -> int

(** Parse ["YYYY-MM-DD"]. Raises {!Type_error} on malformed or impossible
    dates (month 13, Feb 30, ...). *)
val date_of_string : string -> int

val string_of_date : int -> string

(** Calendar-aware month shifting: the day-of-month clamps to the target
    month's length (Jan 31 + 1 month = Feb 28/29), per SQL interval
    semantics. *)
val add_months : int -> int -> int

val add_years : int -> int -> int
val add_days : int -> int -> int

(** {1 Printing} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Render as a SQL literal (strings quoted and escaped, dates as
    [DATE '...']). *)
val to_sql_literal : t -> string

(** {1 Equality and ordering} *)

val is_null : t -> bool

(** Total order for sorting and container keys: NULL first, then booleans,
    numbers (ints and floats interleaved numerically), strings, dates. *)
val compare_total : t -> t -> int

(** Structural equality consistent with {!compare_total}; note
    [equal (Int 2) (Float 2.0) = true]. *)
val equal : t -> t -> bool

(** SQL three-valued comparison: [None] when either side is NULL. *)
val compare_sql : t -> t -> int option

(** Hash consistent with {!equal}. Integer keys avoid float boxing — the
    audit operator calls this once per row. *)
val hash : t -> int

module Key : sig
  type nonrec t = t

  val equal : t -> t -> bool
  val hash : t -> int
  val compare : t -> t -> int
end

module Hashtbl_v : Hashtbl.S with type key = t
module Set_v : Set.S with type elt = t
module Map_v : Map.S with type key = t

(** {1 Arithmetic} (NULL-propagating, numeric promotion) *)

val to_float_exn : t -> float
val to_int_exn : t -> int
val to_str_exn : t -> string

(** Accepts a [Date] or a date-formatted string. *)
val to_date_exn : t -> int

(** Addition; [Date + Int] shifts by days. *)
val add : t -> t -> t

(** Subtraction; [Date - Date] yields the day difference as [Int]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** SQL-style division: [Int / Int] truncates; any float operand promotes.
    Raises {!Type_error} on division by zero. *)
val div : t -> t -> t

val modulo : t -> t -> t
val neg : t -> t

(** {1 SQL string matching} *)

(** SQL [LIKE]: ['%'] matches any run, ['_'] any single character. *)
val like_match : pattern:string -> string -> bool

(** [EXTRACT(YEAR FROM d)]. *)
val extract_year : t -> t

(** [EXTRACT(MONTH FROM d)]. *)
val extract_month : t -> t
