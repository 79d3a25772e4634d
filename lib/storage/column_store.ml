(** Columnar table storage (see the interface for the layout contract). *)

module Bitmap = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let get b i =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set b i v =
    let byte = Char.code (Bytes.unsafe_get b (i lsr 3)) in
    let mask = 1 lsl (i land 7) in
    let byte' = if v then byte lor mask else byte land lnot mask in
    Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr byte')

  (* Copy into a fresh bitmap with capacity for [n] bits. *)
  let grow b n =
    let b' = create n in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
end

module Dict = struct
  type t = {
    mutable strings : string array;  (** code -> string *)
    mutable n : int;
    codes : (string, int) Hashtbl.t;  (** string -> code *)
  }

  let create () = { strings = Array.make 8 ""; n = 0; codes = Hashtbl.create 64 }

  let encode d s =
    match Hashtbl.find_opt d.codes s with
    | Some c -> c
    | None ->
      if d.n = Array.length d.strings then begin
        let bigger = Array.make (2 * d.n) "" in
        Array.blit d.strings 0 bigger 0 d.n;
        d.strings <- bigger
      end;
      let c = d.n in
      d.strings.(c) <- s;
      d.n <- c + 1;
      Hashtbl.add d.codes s c;
      c

  let find d s = Hashtbl.find_opt d.codes s

  let decode d c =
    if c < 0 || c >= d.n then invalid_arg "Column_store.Dict.decode";
    d.strings.(c)

  let size d = d.n
end

type data =
  | Ints of int array
  | Floats of float array
  | Codes of int array * Dict.t

type t = {
  schema : Schema.t;
  mutable cap : int;
  mutable cols : data array;
  mutable nulls : Bitmap.t array;  (** per column; bit set = NULL *)
  mutable live : Bitmap.t;
}

let initial_cap = 16

let fresh_col ty =
  match ty with
  | Datatype.T_int | Datatype.T_date | Datatype.T_bool ->
    Ints (Array.make initial_cap 0)
  | Datatype.T_float -> Floats (Array.make initial_cap 0.0)
  | Datatype.T_string -> Codes (Array.make initial_cap 0, Dict.create ())

let create schema =
  {
    schema;
    cap = initial_cap;
    cols = Array.map (fun c -> fresh_col c.Schema.ty) schema;
    nulls = Array.map (fun _ -> Bitmap.create initial_cap) schema;
    live = Bitmap.create initial_cap;
  }

let capacity t = t.cap

let grow_data cap = function
  | Ints a ->
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 (Array.length a);
    Ints a'
  | Floats a ->
    let a' = Array.make cap 0.0 in
    Array.blit a 0 a' 0 (Array.length a);
    Floats a'
  | Codes (a, d) ->
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 (Array.length a);
    Codes (a', d)

let ensure t slot =
  if slot >= t.cap then begin
    let cap = ref t.cap in
    while slot >= !cap do
      cap := 2 * !cap
    done;
    let cap = !cap in
    t.cols <- Array.map (grow_data cap) t.cols;
    t.nulls <- Array.map (fun b -> Bitmap.grow b cap) t.nulls;
    t.live <- Bitmap.grow t.live cap;
    t.cap <- cap
  end

let bad_cell t i v =
  invalid_arg
    (Printf.sprintf "Column_store.write: column %s does not hold %s"
       (Schema.col t.schema i).Schema.name (Value.to_string v))

let write t slot (row : Tuple.t) =
  ensure t slot;
  Array.iteri
    (fun i v ->
      let nulls = t.nulls.(i) in
      match v with
      | Value.Null -> Bitmap.set nulls slot true
      | _ -> (
        Bitmap.set nulls slot false;
        match (t.cols.(i), v) with
        | Ints a, Value.Int x | Ints a, Value.Date x -> a.(slot) <- x
        | Ints a, Value.Bool b -> a.(slot) <- Bool.to_int b
        | Floats a, Value.Float x -> a.(slot) <- x
        | Codes (a, d), Value.Str s -> a.(slot) <- Dict.encode d s
        | _ -> bad_cell t i v))
    row;
  Bitmap.set t.live slot true

let erase t slot = if slot < t.cap then Bitmap.set t.live slot false
let is_live t slot = slot < t.cap && Bitmap.get t.live slot

let cell t ~col slot =
  if Bitmap.get t.nulls.(col) slot then Value.Null
  else
    match (t.cols.(col), (Schema.col t.schema col).Schema.ty) with
    | Ints a, Datatype.T_int -> Value.Int a.(slot)
    | Ints a, Datatype.T_date -> Value.Date a.(slot)
    | Ints a, Datatype.T_bool -> Value.Bool (a.(slot) <> 0)
    | Floats a, _ -> Value.Float a.(slot)
    | Codes (a, d), _ -> Value.Str (Dict.decode d a.(slot))
    | _ -> assert false

let reader t ~col : int -> Value.t =
  let nulls = t.nulls.(col) in
  let box : int -> Value.t =
    match (t.cols.(col), (Schema.col t.schema col).Schema.ty) with
    | Ints a, Datatype.T_int -> fun s -> Value.Int (Array.unsafe_get a s)
    | Ints a, Datatype.T_date -> fun s -> Value.Date (Array.unsafe_get a s)
    | Ints a, Datatype.T_bool -> fun s -> Value.Bool (Array.unsafe_get a s <> 0)
    | Floats a, _ -> fun s -> Value.Float (Array.unsafe_get a s)
    | Codes (a, d), _ ->
      fun s -> Value.Str (Dict.decode d (Array.unsafe_get a s))
    | _ -> assert false
  in
  fun s -> if Bitmap.get nulls s then Value.Null else box s

let read t slot =
  Array.init (Array.length t.cols) (fun col -> cell t ~col slot)

let read_proj t cols slot =
  Array.map (fun col -> cell t ~col slot) cols

(* Column-at-a-time materialization of [k] selected slots into [rows]
   (position [pos] of each tuple): the variant dispatch, schema lookup
   and null-bitmap fetch happen once per column instead of once per
   cell, and each source array is walked in one tight loop. [rows] must
   be pre-filled with [Null] — NULL cells are never written. *)
let blit_col t ~col ~pos sel k (rows : Tuple.t array) =
  let nulls = t.nulls.(col) in
  match (t.cols.(col), (Schema.col t.schema col).Schema.ty) with
  | Ints a, Datatype.T_int ->
    for i = 0 to k - 1 do
      let s = Array.unsafe_get sel i in
      if not (Bitmap.get nulls s) then
        Array.unsafe_set (Array.unsafe_get rows i) pos
          (Value.Int (Array.unsafe_get a s))
    done
  | Ints a, Datatype.T_date ->
    for i = 0 to k - 1 do
      let s = Array.unsafe_get sel i in
      if not (Bitmap.get nulls s) then
        Array.unsafe_set (Array.unsafe_get rows i) pos
          (Value.Date (Array.unsafe_get a s))
    done
  | Ints a, Datatype.T_bool ->
    for i = 0 to k - 1 do
      let s = Array.unsafe_get sel i in
      if not (Bitmap.get nulls s) then
        Array.unsafe_set (Array.unsafe_get rows i) pos
          (Value.Bool (Array.unsafe_get a s <> 0))
    done
  | Floats a, _ ->
    for i = 0 to k - 1 do
      let s = Array.unsafe_get sel i in
      if not (Bitmap.get nulls s) then
        Array.unsafe_set (Array.unsafe_get rows i) pos
          (Value.Float (Array.unsafe_get a s))
    done
  | Codes (a, d), _ ->
    for i = 0 to k - 1 do
      let s = Array.unsafe_get sel i in
      if not (Bitmap.get nulls s) then
        Array.unsafe_set (Array.unsafe_get rows i) pos
          (Value.Str (Dict.decode d (Array.unsafe_get a s)))
    done
  | _ -> assert false

let read_many t sel k : Tuple.t array =
  let ncols = Array.length t.cols in
  let rows = Array.init k (fun _ -> Array.make ncols Value.Null) in
  for col = 0 to ncols - 1 do
    blit_col t ~col ~pos:col sel k rows
  done;
  rows

let read_proj_many t cols sel k : Tuple.t array =
  let arity = Array.length cols in
  let rows = Array.init k (fun _ -> Array.make arity Value.Null) in
  Array.iteri (fun pos col -> blit_col t ~col ~pos sel k rows) cols;
  rows

let col_type t i = (Schema.col t.schema i).Schema.ty
let col_data t i = t.cols.(i)
let col_nulls t i = t.nulls.(i)

let live_slots t ~from ~stop sel ~max =
  let n = ref 0 in
  let s = ref !from in
  let live = t.live in
  let stop = min stop t.cap in
  while !n < max && !s < stop do
    if Bitmap.get live !s then begin
      Array.unsafe_set sel !n !s;
      incr n
    end;
    incr s
  done;
  from := !s;
  !n
