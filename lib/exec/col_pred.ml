(** Vectorized predicate kernels over columnar tables (see the interface
    for the contract). *)

open Storage
open Plan
module CS = Column_store

type kernel = int -> int

let t_false = 0
let t_true = 1
let t_unknown = 2
let holds = t_true
let of_bool b = if b then t_true else t_false

(* Fold a column-free subtree to its value using the row compiler on the
   empty tuple. [None] when the subtree references columns/parameters or
   its evaluation raises — in the latter case the caller's fallback path
   reproduces the row engine's per-row error exactly. *)
let fold_const ctx e =
  if Scalar.free_cols e = [] && Scalar.free_params e = [] then
    try Some (Expr_compile.compile ctx e [||]) with _ -> None
  else None

let cmp_test : Sql.Ast.binop -> (int -> bool) option = function
  | Sql.Ast.Eq -> Some (fun c -> c = 0)
  | Sql.Ast.Neq -> Some (fun c -> c <> 0)
  | Sql.Ast.Lt -> Some (fun c -> c < 0)
  | Sql.Ast.Le -> Some (fun c -> c <= 0)
  | Sql.Ast.Gt -> Some (fun c -> c > 0)
  | Sql.Ast.Ge -> Some (fun c -> c >= 0)
  | _ -> None

(* A witness cell value of the column's type, for the constant cross-rank
   comparisons ([compare_total] only looks at the ranks there). *)
let witness = function
  | Datatype.T_bool -> Value.Bool false
  | Datatype.T_int -> Value.Int 0
  | Datatype.T_float -> Value.Float 0.0
  | Datatype.T_string -> Value.Str ""
  | Datatype.T_date -> Value.Date 0

(* [cell <op> v] (or [v <op> cell] when [flip]) against column [i].
   Mirrors [Value.compare_sql]: NULL on either side is unknown, Int/Float
   compare numerically, mixed ranks compare by rank (a constant verdict). *)
let cmp_kernel cs i op v flip : kernel =
  let test = match cmp_test op with Some f -> f | None -> assert false in
  let tri c = of_bool (test (if flip then -c else c)) in
  match v with
  | Value.Null -> fun _ -> t_unknown
  | _ -> (
    let nulls = CS.col_nulls cs i in
    let guard f s = if CS.Bitmap.get nulls s then t_unknown else f s in
    let ty = CS.col_type cs i in
    match (CS.col_data cs i, ty, v) with
    | CS.Ints a, Datatype.T_int, Value.Int k ->
      guard (fun s -> tri (Int.compare (Array.unsafe_get a s) k))
    | CS.Ints a, Datatype.T_int, Value.Float f ->
      guard (fun s ->
          tri (Float.compare (float_of_int (Array.unsafe_get a s)) f))
    | CS.Ints a, Datatype.T_date, Value.Date d ->
      guard (fun s -> tri (Int.compare (Array.unsafe_get a s) d))
    | CS.Ints a, Datatype.T_bool, Value.Bool b ->
      let bv = Bool.to_int b in
      guard (fun s -> tri (Int.compare (Array.unsafe_get a s) bv))
    | CS.Floats a, _, Value.Float f ->
      guard (fun s -> tri (Float.compare (Array.unsafe_get a s) f))
    | CS.Floats a, _, Value.Int k ->
      let f = float_of_int k in
      guard (fun s -> tri (Float.compare (Array.unsafe_get a s) f))
    | CS.Codes (a, d), _, Value.Str str ->
      (* One comparison per distinct string: pre-evaluate the verdict for
         every dictionary code. *)
      let n = CS.Dict.size d in
      let verdict =
        Array.init n (fun c -> tri (String.compare (CS.Dict.decode d c) str))
      in
      guard (fun s ->
          let c = Array.unsafe_get a s in
          if c < n then Array.unsafe_get verdict c
          else tri (String.compare (CS.Dict.decode d c) str))
    | _, ty, v ->
      (* Mixed ranks: the same verdict for every non-NULL cell. *)
      let k = tri (Value.compare_total (witness ty) v) in
      guard (fun _ -> k))

let in_table vs =
  let tbl = Value.Hashtbl_v.create (max 8 (2 * Array.length vs)) in
  Array.iter (fun v -> Value.Hashtbl_v.replace tbl v ()) vs;
  tbl

let rec compile ctx cs (e : Scalar.t) : kernel option =
  match e with
  | Scalar.Const (Value.Bool b) -> Some (fun _ -> of_bool b)
  | Scalar.Const Value.Null -> Some (fun _ -> t_unknown)
  | Scalar.Col i when CS.col_type cs i = Datatype.T_bool -> (
    match CS.col_data cs i with
    | CS.Ints a ->
      let nulls = CS.col_nulls cs i in
      Some
        (fun s ->
          if CS.Bitmap.get nulls s then t_unknown else Array.unsafe_get a s)
    | _ -> None)
  | Scalar.Not a -> (
    match compile ctx cs a with
    | Some k ->
      Some
        (fun s ->
          match k s with 0 -> t_true | 1 -> t_false | _ -> t_unknown)
    | None -> None)
  | Scalar.Binop (Sql.Ast.And, a, b) -> (
    match (compile ctx cs a, compile ctx cs b) with
    | Some ka, Some kb ->
      (* Kleene AND with the same shortcut as the row compiler (safe:
         supported sub-kernels never raise). *)
      Some
        (fun s ->
          match ka s with
          | 0 -> t_false
          | 1 -> kb s
          | _ -> if kb s = t_false then t_false else t_unknown)
    | _ -> None)
  | Scalar.Binop (Sql.Ast.Or, a, b) -> (
    match (compile ctx cs a, compile ctx cs b) with
    | Some ka, Some kb ->
      Some
        (fun s ->
          match ka s with
          | 1 -> t_true
          | 0 -> kb s
          | _ -> if kb s = t_true then t_true else t_unknown)
    | _ -> None)
  | Scalar.Binop (op, a, b) when cmp_test op <> None -> (
    match (a, b) with
    | Scalar.Col i, rhs -> (
      match fold_const ctx rhs with
      | Some v -> Some (cmp_kernel cs i op v false)
      | None -> try_const ctx e)
    | lhs, Scalar.Col i -> (
      match fold_const ctx lhs with
      | Some v -> Some (cmp_kernel cs i op v true)
      | None -> try_const ctx e)
    | _ -> try_const ctx e)
  | Scalar.Is_null (Scalar.Col i, neg) ->
    let nulls = CS.col_nulls cs i in
    Some (fun s -> of_bool (CS.Bitmap.get nulls s <> neg))
  | Scalar.Like (Scalar.Col i, p, neg) -> (
    match CS.col_data cs i with
    | CS.Codes (a, d) -> (
      match fold_const ctx p with
      | Some (Value.Str pattern) ->
        let nulls = CS.col_nulls cs i in
        let n = CS.Dict.size d in
        let verdict =
          Array.init n (fun c ->
              of_bool (Value.like_match ~pattern (CS.Dict.decode d c) <> neg))
        in
        Some
          (fun s ->
            if CS.Bitmap.get nulls s then t_unknown
            else
              let c = Array.unsafe_get a s in
              if c < n then Array.unsafe_get verdict c
              else
                of_bool (Value.like_match ~pattern (CS.Dict.decode d c) <> neg))
      | Some Value.Null ->
        (* NULL pattern: unknown whether the cell is NULL or a string. *)
        Some (fun _ -> t_unknown)
      | _ -> None)
    | _ -> None)
  | Scalar.In_list (Scalar.Col i, vs, neg) -> (
    let tbl = in_table vs in
    let miss =
      match Scalar.in_list_miss vs neg with
      | Value.Null -> t_unknown
      | _ -> of_bool neg
    in
    let verdict hit = if hit then of_bool (not neg) else miss in
    let nulls = CS.col_nulls cs i in
    let guard f s = if CS.Bitmap.get nulls s then t_unknown else f s in
    match (CS.col_data cs i, CS.col_type cs i) with
    | CS.Codes (a, d), _ ->
      let n = CS.Dict.size d in
      let by_code =
        Array.init n (fun c ->
            verdict (Value.Hashtbl_v.mem tbl (Value.Str (CS.Dict.decode d c))))
      in
      Some
        (guard (fun s ->
             let c = Array.unsafe_get a s in
             if c < n then Array.unsafe_get by_code c
             else
               verdict
                 (Value.Hashtbl_v.mem tbl (Value.Str (CS.Dict.decode d c)))))
    | CS.Ints a, Datatype.T_int ->
      Some
        (guard (fun s ->
             verdict (Value.Hashtbl_v.mem tbl (Value.Int (Array.unsafe_get a s)))))
    | CS.Ints a, Datatype.T_date ->
      Some
        (guard (fun s ->
             verdict
               (Value.Hashtbl_v.mem tbl (Value.Date (Array.unsafe_get a s)))))
    | CS.Ints a, Datatype.T_bool ->
      Some
        (guard (fun s ->
             verdict
               (Value.Hashtbl_v.mem tbl
                  (Value.Bool (Array.unsafe_get a s <> 0)))))
    | CS.Floats a, _ ->
      Some
        (guard (fun s ->
             verdict
               (Value.Hashtbl_v.mem tbl (Value.Float (Array.unsafe_get a s)))))
    | _ -> None)
  | e -> try_const ctx e

(* A residual column-free predicate (e.g. [1 = 1] or an [Is_null] over a
   constant subtree): one verdict for every slot. Anything non-boolean is
   left to the fallback (the row engine's error behaviour is part of the
   contract). *)
and try_const ctx e =
  match fold_const ctx e with
  | Some (Value.Bool b) -> Some (fun _ -> of_bool b)
  | Some Value.Null -> Some (fun _ -> t_unknown)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Numeric expression kernels (fused aggregation arguments)            *)
(* ------------------------------------------------------------------ *)

type num = Kint of (int -> int) | Kfloat of (int -> float)

let promote = function
  | Kint f -> fun s -> float_of_int (f s)
  | Kfloat f -> f

(* Compile a numeric scalar over the columnar store into an unboxed
   value kernel plus a NULL kernel, mirroring [Value.add]/[sub]/[mul]
   exactly: NULL propagates, Int op Int stays Int (native-int wrap
   included), any Float operand promotes both sides to float. Date and
   Bool columns are excluded (Date+Int would change representation;
   arithmetic on Bool is a row-engine type error), as is division
   (division-by-zero must raise per row) — those shapes return [None]
   and the caller falls back to the row-compiled path. *)
let rec compile_num ctx cs (e : Scalar.t) : (num * (int -> bool)) option =
  match e with
  | Scalar.Col i -> (
    let nulls = CS.col_nulls cs i in
    let nullk s = CS.Bitmap.get nulls s in
    match (CS.col_data cs i, CS.col_type cs i) with
    | CS.Ints a, Datatype.T_int ->
      Some (Kint (fun s -> Array.unsafe_get a s), nullk)
    | CS.Floats a, _ -> Some (Kfloat (fun s -> Array.unsafe_get a s), nullk)
    | _ -> None)
  | Scalar.Binop (((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul) as op), a, b)
    -> (
    match (compile_num ctx cs a, compile_num ctx cs b) with
    | Some (ka, na), Some (kb, nb) ->
      let nullk s = na s || nb s in
      let k =
        match (ka, kb) with
        | Kint fa, Kint fb ->
          let iop =
            match op with
            | Sql.Ast.Add -> ( + )
            | Sql.Ast.Sub -> ( - )
            | _ -> ( * )
          in
          Kint (fun s -> iop (fa s) (fb s))
        | _ ->
          let fop =
            match op with
            | Sql.Ast.Add -> ( +. )
            | Sql.Ast.Sub -> ( -. )
            | _ -> ( *. )
          in
          let pa = promote ka and pb = promote kb in
          Kfloat (fun s -> fop (pa s) (pb s))
      in
      Some (k, nullk)
    | _ -> None)
  | e -> (
    (* Column-free subtree (constants, parameters, [now()]): folded once
       at kernel-compile time, which happens per execution. *)
    match fold_const ctx e with
    | Some (Value.Int k) -> Some (Kint (fun _ -> k), fun _ -> false)
    | Some (Value.Float f) -> Some (Kfloat (fun _ -> f), fun _ -> false)
    | Some Value.Null -> Some (Kint (fun _ -> 0), fun _ -> true)
    | _ -> None)
