(** Tables, behind one seam over two physical representations.

    Rows live in stable slots; deletion leaves a hole so row identifiers
    (slot numbers) survive. A clustered hash index maps the primary-key
    value to its slot, mirroring the paper's observation (§IV-A1) that the
    partition-by key usually coincides with the clustered index and is
    therefore read "for free".

    Two stores implement the slot contract:
    - [Heap]: a growable [Tuple.t option array] of boxed rows — the
      original representation, kept as the differential oracle.
    - [Columnar]: typed unboxed vectors per column with dictionary-encoded
      strings and null/live bitmaps ({!Column_store}) — rows are
      materialized on demand, and the compiled engine's kernels read the
      column vectors directly.

    Because slot identity, the PK/secondary indexes, and the change hooks
    all live at this level, the row engine, triggers and sensitive-view
    maintenance are representation-agnostic.

    Change hooks let the audit subsystem maintain materialized sensitive-ID
    views incrementally (standard materialized-view maintenance, §IV-A1). *)

type change =
  | Inserted of Tuple.t
  | Deleted of Tuple.t
  | Updated of { before : Tuple.t; after : Tuple.t }

type storage = Heap | Columnar

let storage_to_string = function Heap -> "heap" | Columnar -> "columnar"

let storage_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" | "row" -> Some Heap
  | "columnar" | "column" -> Some Columnar
  | _ -> None

type store =
  | Heap_slots of Tuple.t option array
  | Col_store of Column_store.t

type index = {
  idx_name : string;
  idx_col : int;
  idx_map : int list ref Value.Hashtbl_v.t;  (** value -> slots *)
}

(* A heap column's cache of shared values (see [share]). *)
type column_cache = {
  mutable cells : Value.t array;  (** direct-mapped; [Null] marks a free slot *)
  mutable credit : int;  (** sharing stops for good at 0 *)
}

type t = {
  name : string;
  schema : Schema.t;
  key : int option;  (** primary-key column index, if any *)
  mutable store : store;
  mutable next_slot : int;
  mutable live : int;
  pk_index : int Value.Hashtbl_v.t;  (** pk value -> slot *)
  mutable indexes : index list;  (** secondary (non-unique) indexes *)
  mutable hooks : (change -> unit) list;
  mutable shared : column_cache array;
      (** heap only: per-column caches of stored values (see [share_row]);
          [[||]] until the slot array first grows *)
}

exception Duplicate_key of string
exception Schema_mismatch of string

let create ?key ?(storage = Heap) ~name schema =
  (match key with
  | Some k when k < 0 || k >= Schema.arity schema ->
    invalid_arg "Table.create: key index out of range"
  | _ -> ());
  {
    name;
    schema;
    key;
    store =
      (match storage with
      | Heap -> Heap_slots (Array.make 16 None)
      | Columnar -> Col_store (Column_store.create schema));
    next_slot = 0;
    live = 0;
    (* a keyless table (a trigger's [new]/[old], say) never fills it *)
    pk_index = Value.Hashtbl_v.create (if key = None then 1 else 64);
    indexes = [];
    hooks = [];
    shared = [||];
  }

let name t = t.name
let schema t = t.schema
let key t = t.key
let storage t = match t.store with Heap_slots _ -> Heap | Col_store _ -> Columnar
let column_store t = match t.store with Heap_slots _ -> None | Col_store cs -> Some cs
let next_slot t = t.next_slot

(* ------------------------------------------------------------------ *)
(* Slot primitives (the only code that sees the representation)        *)
(* ------------------------------------------------------------------ *)

(* The live row at a slot, materialized when columnar. *)
let slot_get t s =
  match t.store with
  | Heap_slots slots -> slots.(s)
  | Col_store cs ->
    if Column_store.is_live cs s then Some (Column_store.read cs s) else None

let slot_set t s row =
  match t.store with
  | Heap_slots slots -> slots.(s) <- Some row
  | Col_store cs -> Column_store.write cs s row

let slot_clear t s =
  match t.store with
  | Heap_slots slots -> slots.(s) <- None
  | Col_store cs -> Column_store.erase cs s

(* ------------------------------------------------------------------ *)
(* Shared cells (heap only)                                            *)
(* ------------------------------------------------------------------ *)

(* A heap row is an array of boxed values, and most columns repeat a few
   values across many rows (flags, modes, dates, small quantities, foreign
   keys). Each heap column keeps a direct-mapped cache of the values it
   stored last; a stored cell equal to the cached value in its cache slot
   is replaced by that value, so the rows share one physical copy. Values
   are immutable and "equal" here is strict — ints and dates by value,
   floats by their bits ([-0.0] and [0.0] stay apart, NaN payloads are
   kept), strings by content — so a shared value cannot be told apart
   from the copy it replaces. Long strings (comments) are rarely repeated
   and cost the most to hash, so they are stored as given.

   The caches appear when the slot array first grows (a table of at most
   16 rows, such as a trigger's [new]/[old]/[accessed], has none) and
   grow with it up to [share_slots] entries per column. A column whose
   values rarely repeat (keys, prices) spends its credit on misses and
   then drops its cache for good, so it costs a bounded number of
   lookups and no memory. *)

let share_slots = 2048
let share_max_len = 32

(* A miss costs 1 credit and a hit earns [hit_credit], up to
   [max_credit]: a column whose hit rate stays under 1 in 9 runs out. *)
let max_credit = 2 * share_slots
let hit_credit = 8
let shared_true = Value.Bool true
let shared_false = Value.Bool false

(* Ints and dates index by their low bits, so a dense range (keys, days,
   small quantities) fills the cache without a conflict. A float's bits
   are mixed first: the low bits of a round number are all zero. *)
let share_index mask (v : Value.t) =
  match v with
  | Value.Int i | Value.Date i -> i land mask
  | Value.Float f ->
    let h = Int64.to_int (Int64.bits_of_float f) in
    let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land mask
  | Value.Str s -> Hashtbl.hash s land mask
  | Value.Null | Value.Bool _ -> 0

let same_cell (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> Int.equal x y
  | Value.Float x, Value.Float y ->
    (Int64.bits_of_float x : int64) = Int64.bits_of_float y
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> false

let share cc (v : Value.t) =
  match v with
  | Value.Null -> v
  | Value.Bool b -> if b then shared_true else shared_false
  | Value.Str s when String.length s > share_max_len -> v
  | _ when cc.credit <= 0 -> v
  | _ ->
    let cells = cc.cells in
    let i = share_index (Array.length cells - 1) v in
    let c = Array.unsafe_get cells i in
    if same_cell c v then begin
      if cc.credit < max_credit then cc.credit <- cc.credit + hit_credit;
      c
    end
    else begin
      cc.credit <- cc.credit - 1;
      if cc.credit > 0 then Array.unsafe_set cells i v else cc.cells <- [||];
      v
    end

(* Replace the cells of a freshly coerced row (owned by the caller, of the
   table's arity) by their shared copies. *)
let share_row t (row : Tuple.t) =
  let caches = t.shared in
  if Array.length caches > 0 then
    for i = 0 to Array.length row - 1 do
      Array.unsafe_set row i
        (share (Array.unsafe_get caches i) (Array.unsafe_get row i))
    done

(* Size the caches for a slot array of [capacity]. A grown cache starts
   empty: its column re-learns its values within a few misses. *)
let grow_shared t capacity =
  let size = min share_slots capacity in
  if Array.length t.shared = 0 then
    t.shared <-
      Array.init (Schema.arity t.schema) (fun _ ->
          { cells = Array.make size Value.Null; credit = max_credit })
  else
    Array.iter
      (fun cc ->
        if cc.credit > 0 && Array.length cc.cells < size then
          cc.cells <- Array.make size Value.Null)
      t.shared

let ensure_capacity t =
  match t.store with
  | Heap_slots slots ->
    if t.next_slot = Array.length slots then begin
      let bigger = Array.make (2 * Array.length slots) None in
      Array.blit slots 0 bigger 0 t.next_slot;
      t.store <- Heap_slots bigger;
      grow_shared t (Array.length bigger)
    end
  | Col_store cs -> Column_store.ensure cs t.next_slot

(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                   *)
(* ------------------------------------------------------------------ *)

exception Index_exists of string
exception Unknown_index of string

let index_add idx v slot =
  match Value.Hashtbl_v.find_opt idx.idx_map v with
  | Some slots -> slots := slot :: !slots
  | None -> Value.Hashtbl_v.add idx.idx_map v (ref [ slot ])

let index_remove idx v slot =
  match Value.Hashtbl_v.find_opt idx.idx_map v with
  | Some slots ->
    slots := List.filter (fun s -> s <> slot) !slots;
    if !slots = [] then Value.Hashtbl_v.remove idx.idx_map v
  | None -> ()

(** Create a (non-unique) secondary index on column [col], populated from
    the current rows and maintained by every subsequent change. *)
let create_index t ~name:idx_name ~col =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Table.create_index: column out of range";
  if List.exists (fun i -> i.idx_name = idx_name) t.indexes then
    raise (Index_exists idx_name);
  let idx = { idx_name; idx_col = col; idx_map = Value.Hashtbl_v.create 256 } in
  for slot = 0 to t.next_slot - 1 do
    match slot_get t slot with
    | Some row -> index_add idx (Tuple.get row col) slot
    | None -> ()
  done;
  t.indexes <- idx :: t.indexes

let drop_index t idx_name =
  if not (List.exists (fun i -> i.idx_name = idx_name) t.indexes) then
    raise (Unknown_index idx_name);
  t.indexes <- List.filter (fun i -> i.idx_name <> idx_name) t.indexes

(** Columns with a secondary index. *)
let indexed_columns t = List.map (fun i -> i.idx_col) t.indexes

let index_names t = List.map (fun i -> (i.idx_name, i.idx_col)) t.indexes

(** Live rows whose column [col] equals [v], via an index. [None] when no
    index (and no primary key) covers the column. *)
let lookup ?hide t ~col v : Tuple.t list option =
  let hidden row =
    match hide with
    | Some (hcol, hv) -> Value.equal (Tuple.get row hcol) hv
    | None -> false
  in
  if t.key = Some col then
    Some
      (match Value.Hashtbl_v.find_opt t.pk_index v with
      | Some slot -> (
        match slot_get t slot with
        | Some row when not (hidden row) -> [ row ]
        | _ -> [])
      | None -> [])
  else
    match List.find_opt (fun i -> i.idx_col = col) t.indexes with
    | None -> None
    | Some idx ->
      Some
        (match Value.Hashtbl_v.find_opt idx.idx_map v with
        | None -> []
        | Some slots ->
          List.filter_map
            (fun slot ->
              match slot_get t slot with
              | Some row when not (hidden row) -> Some row
              | _ -> None)
            !slots)

let cardinality t = t.live
let on_change t f = t.hooks <- f :: t.hooks
let off_change t f = t.hooks <- List.filter (fun g -> g != f) t.hooks
let notify t c = List.iter (fun f -> f c) t.hooks

let check_row t (row : Tuple.t) =
  if Tuple.arity row <> Schema.arity t.schema then
    raise
      (Schema_mismatch
         (Printf.sprintf "table %s expects %d columns, got %d" t.name
            (Schema.arity t.schema) (Tuple.arity row)));
  Array.iteri
    (fun i v ->
      let c = Schema.col t.schema i in
      if not (Datatype.admits c.Schema.ty v) then
        raise
          (Schema_mismatch
             (Printf.sprintf "table %s column %s: value %s does not fit %s"
                t.name c.Schema.name (Value.to_string v)
                (Datatype.to_string c.Schema.ty))))
    row

(* Coerce each cell to the declared column type (int->float, string->date).
   This is what makes the columnar encoding total: a stored cell is exactly
   its declared type or NULL. *)
let coerce_row t (row : Tuple.t) : Tuple.t =
  Array.mapi
    (fun i v -> Datatype.coerce (Schema.col t.schema i).Schema.ty v)
    row

let insert t row =
  let row = coerce_row t row in
  check_row t row;
  (match t.key with
  | Some k ->
    let kv = Tuple.get row k in
    if Value.is_null kv then
      raise (Duplicate_key (Printf.sprintf "table %s: NULL primary key" t.name));
    if Value.Hashtbl_v.mem t.pk_index kv then
      raise
        (Duplicate_key
           (Printf.sprintf "table %s: duplicate key %s" t.name
              (Value.to_string kv)))
  | None -> ());
  ensure_capacity t;
  share_row t row;
  let slot = t.next_slot in
  slot_set t slot row;
  t.next_slot <- slot + 1;
  t.live <- t.live + 1;
  (match t.key with
  | Some k -> Value.Hashtbl_v.replace t.pk_index (Tuple.get row k) slot
  | None -> ());
  List.iter (fun idx -> index_add idx (Tuple.get row idx.idx_col) slot) t.indexes;
  notify t (Inserted row)

(** Clustered-index lookup by primary key. *)
let find_by_key t kv =
  match t.key with
  | None -> None
  | Some _ -> (
    match Value.Hashtbl_v.find_opt t.pk_index kv with
    | None -> None
    | Some slot -> slot_get t slot)

let delete_slot t slot =
  match slot_get t slot with
  | None -> ()
  | Some row ->
    slot_clear t slot;
    t.live <- t.live - 1;
    (match t.key with
    | Some k -> Value.Hashtbl_v.remove t.pk_index (Tuple.get row k)
    | None -> ());
    List.iter
      (fun idx -> index_remove idx (Tuple.get row idx.idx_col) slot)
      t.indexes;
    notify t (Deleted row)

(** Delete all rows satisfying [pred]; returns how many were deleted. *)
let delete_where t pred =
  let n = ref 0 in
  for slot = 0 to t.next_slot - 1 do
    match slot_get t slot with
    | Some row when pred row ->
      delete_slot t slot;
      incr n
    | _ -> ()
  done;
  !n

(* Replace the live [row] at [slot] by [f row], keeping the indexes. *)
let update_slot t slot row f =
  let row' = coerce_row t (f row) in
  check_row t row';
  (match t.key with
  | Some k ->
    let old_kv = Tuple.get row k and new_kv = Tuple.get row' k in
    if not (Value.equal old_kv new_kv) then begin
      if Value.Hashtbl_v.mem t.pk_index new_kv then
        raise
          (Duplicate_key
             (Printf.sprintf "table %s: duplicate key %s on update" t.name
                (Value.to_string new_kv)));
      Value.Hashtbl_v.remove t.pk_index old_kv;
      Value.Hashtbl_v.replace t.pk_index new_kv slot
    end
  | None -> ());
  share_row t row';
  slot_set t slot row';
  List.iter
    (fun idx ->
      let old_v = Tuple.get row idx.idx_col in
      let new_v = Tuple.get row' idx.idx_col in
      if not (Value.equal old_v new_v) then begin
        index_remove idx old_v slot;
        index_add idx new_v slot
      end)
    t.indexes;
  notify t (Updated { before = row; after = row' })

(** In-place update of all rows satisfying [pred]; [f] builds the new row.
    Key updates are allowed as long as they do not collide. *)
let update_where t pred f =
  let n = ref 0 in
  for slot = 0 to t.next_slot - 1 do
    match slot_get t slot with
    | Some row when pred row ->
      update_slot t slot row f;
      incr n
    | _ -> ()
  done;
  !n

(* The slots of the live rows that share a key (column [k]) with one of
   [rows], ascending: the slots, and the order, in which a walk of every
   slot would meet them. *)
let key_slots t k rows =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun r -> Value.Hashtbl_v.find_opt t.pk_index (Tuple.get r k))
       rows)

let row_member rows =
  let set = Tuple.Hashtbl_t.create 16 in
  List.iter (fun r -> Tuple.Hashtbl_t.replace set r ()) rows;
  Tuple.Hashtbl_t.mem set

let update_rows t rows f =
  match t.key with
  | Some k ->
    List.fold_left
      (fun n slot ->
        match slot_get t slot with
        | Some row ->
          update_slot t slot row f;
          n + 1
        | None -> n)
      0 (key_slots t k rows)
  | None -> update_where t (row_member rows) f

let delete_rows t rows =
  match t.key with
  | Some k ->
    List.filter_map
      (fun slot ->
        let row = slot_get t slot in
        delete_slot t slot;
        row)
      (key_slots t k rows)
  | None ->
    let member = row_member rows and deleted = ref [] in
    let pred row = member row && (deleted := row :: !deleted; true) in
    ignore (delete_where t pred);
    List.rev !deleted

(** Sequential scan. [hide = (col, v)] virtually deletes the rows whose
    column [col] equals [v] without mutating the table — this is how the
    exact offline auditor evaluates Q(D - t) (Definition 2.3). *)
let iter ?hide t f =
  let hidden row =
    match hide with
    | Some (col, v) -> Value.equal (Tuple.get row col) v
    | None -> false
  in
  for slot = 0 to t.next_slot - 1 do
    match slot_get t slot with
    | Some row when not (hidden row) -> f row
    | _ -> ()
  done

(** Pull-based cursor over live rows (used by the executor's scans).
    [?hide] virtually deletes every row whose column [col] equals [v] —
    with a non-unique column this hides the whole partition, matching the
    paper's per-individual deletion semantics. *)
let cursor ?hide t =
  let hidden row =
    match hide with
    | Some (col, v) -> Value.equal (Tuple.get row col) v
    | None -> false
  in
  let slot = ref 0 in
  let rec next () =
    if !slot >= t.next_slot then None
    else begin
      let s = !slot in
      incr slot;
      match slot_get t s with
      | Some row when not (hidden row) -> Some row
      | _ -> next ()
    end
  in
  next

let fold ?hide t f init =
  let acc = ref init in
  iter ?hide t (fun row -> acc := f !acc row);
  !acc

let to_list t = List.rev (fold t (fun acc r -> r :: acc) [])

(** Snapshot of live rows in slot order, for stable scans while mutating. *)
let snapshot t = Array.of_list (to_list t)

let fill_chunk t ~slot buf ~max =
  let n = ref 0 in
  let s = ref !slot in
  let stop = t.next_slot in
  (match t.store with
  | Heap_slots slots ->
    while !n < max && !s < stop do
      (match Array.unsafe_get slots !s with
      | Some row ->
        Array.unsafe_set buf !n row;
        incr n
      | None -> ());
      incr s
    done
  | Col_store cs ->
    (* Collect live slots, then decode column-at-a-time: the variant
       dispatch runs once per column per chunk, not once per cell. *)
    let sel = Array.make max 0 in
    let k = Column_store.live_slots cs ~from:s ~stop sel ~max in
    let rows = Column_store.read_many cs sel k in
    Array.blit rows 0 buf 0 k;
    n := k);
  slot := !s;
  !n

let fill_chunk_proj t ~slot buf ~max ~cols =
  let n = ref 0 in
  let s = ref !slot in
  let stop = t.next_slot in
  (match t.store with
  | Heap_slots slots ->
    while !n < max && !s < stop do
      (match Array.unsafe_get slots !s with
      | Some row ->
        Array.unsafe_set buf !n (Tuple.project row cols);
        incr n
      | None -> ());
      incr s
    done
  | Col_store cs ->
    (* The columnar payoff: only the referenced columns are decoded, and
       column-at-a-time. *)
    let sel = Array.make max 0 in
    let k = Column_store.live_slots cs ~from:s ~stop sel ~max in
    let rows = Column_store.read_proj_many cs cols sel k in
    Array.blit rows 0 buf 0 k;
    n := k);
  slot := !s;
  !n

let clear t =
  for slot = 0 to t.next_slot - 1 do
    delete_slot t slot
  done;
  t.next_slot <- 0
