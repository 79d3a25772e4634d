(** Columnar table storage: one typed unboxed vector per column.

    The second table representation behind the {!Table} seam. Numeric
    columns live in unboxed [int array] / [float array], strings are
    dictionary-encoded (an [int array] of codes into a per-column
    interning dictionary), NULLs and row liveness are bit-packed bitmaps.
    Slot numbers are the same stable row identifiers the heap store uses,
    so primary-key/secondary indexes, change hooks and the [?hide]
    virtual-delete contract carry over unchanged.

    The encoding is total because {!Table.insert}/[update_where] coerce
    and check every row first: a stored cell is exactly its declared
    {!Datatype.t} or [Null], never anything else. *)

(** {1 Bitmaps} (bit-packed, least-significant bit first) *)

module Bitmap : sig
  type t = Bytes.t

  (** All bits clear, capacity for [n] bits. *)
  val create : int -> t

  val get : t -> int -> bool
  val set : t -> int -> bool -> unit
end

(** {1 String dictionaries} *)

module Dict : sig
  type t

  val create : unit -> t

  (** Intern a string, returning its (dense, stable) code. Duplicates and
      the empty string map to their existing code. *)
  val encode : t -> string -> int

  (** Read-only probe: the code of an already-interned string. *)
  val find : t -> string -> int option

  (** The string behind a code. Raises [Invalid_argument] on an
      out-of-range code. *)
  val decode : t -> int -> string

  (** Number of distinct interned strings (codes are [0 .. size-1]). *)
  val size : t -> int
end

(** {1 Column stores} *)

type t

(** Typed view of one column's backing vector, for the columnar
    predicate kernels. [Ints] backs [T_int], [T_date] (epoch days) and
    [T_bool] (0/1); [Floats] backs [T_float]; [Codes] backs [T_string]
    (dictionary codes). Only slots whose null bit is clear and whose live
    bit is set hold meaningful data. *)
type data =
  | Ints of int array
  | Floats of float array
  | Codes of int array * Dict.t

val create : Schema.t -> t

(** Current slot capacity (grows by doubling on {!write}). *)
val capacity : t -> int

(** Grow until the capacity exceeds [slot]. *)
val ensure : t -> int -> unit

(** [write t slot row] stores a coerced, schema-checked row at [slot]
    (new or overwrite) and sets its live bit. *)
val write : t -> int -> Tuple.t -> unit

(** Clear the live bit ([write] data stays behind but is dead). *)
val erase : t -> int -> unit

val is_live : t -> int -> bool

(** Materialize the full row at a live slot (fresh boxed tuple). *)
val read : t -> int -> Tuple.t

(** [read_proj t cols slot] materializes only the referenced columns, in
    [cols] order — the projected counterpart of {!read}. *)
val read_proj : t -> int array -> int -> Tuple.t

(** [read_many t sel k] materializes the slots [sel.(0..k-1)]
    column-at-a-time: one variant dispatch and null-bitmap fetch per
    column rather than per cell — the chunked scan's bulk decode. *)
val read_many : t -> int array -> int -> Tuple.t array

(** {!read_many} restricted to the referenced columns, in [cols] order. *)
val read_proj_many : t -> int array -> int array -> int -> Tuple.t array

(** One cell of a live slot. *)
val cell : t -> col:int -> int -> Value.t

(** [reader t ~col] is [cell t ~col] with the column's type dispatch
    done once, for kernels that decode one column slot by slot. The
    reader holds the current vectors: take it after the last write. *)
val reader : t -> col:int -> int -> Value.t

(** {2 Kernel access} *)

val col_type : t -> int -> Datatype.t
val col_data : t -> int -> data

(** The column's null bitmap (bit set = NULL at that slot). *)
val col_nulls : t -> int -> Bitmap.t

(** [live_slots t ~from ~stop sel ~max] writes up to [max] live slot
    numbers in [\[!from, stop)] into [sel.(0..)], advances [from] past
    the slots examined, and returns the count — the selection-vector
    counterpart of {!Table.fill_chunk}, with no tuple materialized. *)
val live_slots : t -> from:int ref -> stop:int -> int array -> max:int -> int
