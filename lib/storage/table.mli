(** Tables with a clustered primary-key hash index and change hooks, over
    either of two physical representations (heap or columnar).

    Change hooks are how materialized sensitive-ID views stay fresh
    ({!Audit_core.Sensitive_view}): every insert/delete/update notifies
    subscribers with the affected rows. Hooks, indexes, [?hide] and the
    cursor contract are representation-independent — slot identity is
    stable in both stores. *)

type change =
  | Inserted of Tuple.t
  | Deleted of Tuple.t
  | Updated of { before : Tuple.t; after : Tuple.t }

(** Physical representation: [Heap] is a growable array of boxed tuples
    (the differential oracle); [Columnar] stores typed unboxed vectors
    per column ({!Column_store}) and materializes tuples on demand. *)
type storage = Heap | Columnar

val storage_to_string : storage -> string

(** Parse ["heap"]/["columnar"] (also accepts ["row"]/["column"]). *)
val storage_of_string : string -> storage option

type t

exception Duplicate_key of string
exception Schema_mismatch of string

(** [create ?key ?storage ~name schema] — [key] is the primary-key column
    index; when present, inserts maintain a clustered hash index on it.
    [storage] defaults to [Heap]. *)
val create : ?key:int -> ?storage:storage -> name:string -> Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val key : t -> int option

(** The table's physical representation. *)
val storage : t -> storage

(** The backing column store of a [Columnar] table ([None] for heap) —
    the compiled engine's kernels read column vectors through this. *)
val column_store : t -> Column_store.t option

(** The slot high-water mark (scan bound for slot-based kernels). *)
val next_slot : t -> int

(** Number of live rows. *)
val cardinality : t -> int

(** Subscribe to every subsequent change. *)
val on_change : t -> (change -> unit) -> unit

(** Unsubscribe a hook given to {!on_change} (the same closure). *)
val off_change : t -> (change -> unit) -> unit

(** Coerce each cell to its declared column type (int→float,
    string→date). *)
val coerce_row : t -> Tuple.t -> Tuple.t

(** Insert a row. Raises {!Schema_mismatch} on arity/type errors and
    {!Duplicate_key} on key conflicts (or NULL keys).

    A heap table stores a coerced copy of the row whose cells may be
    shared with earlier rows: each column keeps a bounded cache of the
    values it stored, and a cell equal to a cached one (floats by their
    bits, strings by content) is stored as that value. Updates store their
    new rows the same way. *)
val insert : t -> Tuple.t -> unit

(** Clustered-index point lookup. *)
val find_by_key : t -> Value.t -> Tuple.t option

(** {1 Secondary indexes} *)

exception Index_exists of string
exception Unknown_index of string

(** Create a (non-unique) secondary index on a column, populated from the
    current rows and maintained through every change. *)
val create_index : t -> name:string -> col:int -> unit

val drop_index : t -> string -> unit
val indexed_columns : t -> int list
val index_names : t -> (string * int) list

(** Live rows whose column equals the value, via the primary-key or a
    secondary index; [None] when no index covers the column. [?hide] as in
    {!cursor}. *)
val lookup :
  ?hide:int * Value.t -> t -> col:int -> Value.t -> Tuple.t list option

(** Delete all rows satisfying the predicate; returns the count. *)
val delete_where : t -> (Tuple.t -> bool) -> int

(** Update rows satisfying the predicate via the mapping function; key
    changes are allowed unless they collide. Returns the count. *)
val update_where : t -> (Tuple.t -> bool) -> (Tuple.t -> Tuple.t) -> int

(** [update_rows t rows f] updates, through [f], the live rows equal to
    [rows] (rows read from [t]), in slot order, as {!update_where} with a
    membership test would. A keyed table reaches each row through its
    primary-key index, matching on the key; a keyless one walks every
    slot, matching whole rows. Returns the count. *)
val update_rows : t -> Tuple.t list -> (Tuple.t -> Tuple.t) -> int

(** [delete_rows t rows] deletes the live rows equal to [rows], found as
    in {!update_rows}, and returns them in slot order. *)
val delete_rows : t -> Tuple.t list -> Tuple.t list

(** Pull-based cursor over live rows. [?hide:(col, v)] virtually deletes
    every row whose column [col] equals [v] for the duration of the scan —
    how the exact offline auditor evaluates Q(D - t) without mutating
    anything (a non-unique column hides the whole partition, the paper's
    per-individual unit). *)
val cursor : ?hide:int * Value.t -> t -> unit -> Tuple.t option

val iter : ?hide:int * Value.t -> t -> (Tuple.t -> unit) -> unit
val fold : ?hide:int * Value.t -> t -> ('a -> Tuple.t -> 'a) -> 'a -> 'a
val to_list : t -> Tuple.t list

(** [fill_chunk t ~slot buf ~max] copies up to [max] live rows into
    [buf.(0 ..)], starting at slot [!slot] (advanced past the rows
    consumed), and returns the fill count — 0 at end of table. The bulk
    counterpart of {!cursor} for chunked scans: slot order, no
    per-row closure or option allocation. *)
val fill_chunk : t -> slot:int ref -> Tuple.t array -> max:int -> int

(** [fill_chunk_proj] is {!fill_chunk} with the scan projection fused in:
    each filled row is [Tuple.project row cols]. On a columnar table only
    the referenced columns are decoded — unreferenced columns are never
    materialized. *)
val fill_chunk_proj :
  t -> slot:int ref -> Tuple.t array -> max:int -> cols:int array -> int

(** Stable array snapshot of the live rows. *)
val snapshot : t -> Tuple.t array

(** Delete every row (hooks fire per row). *)
val clear : t -> unit
