(** Textbook cardinality estimation.

    Drives the greedy join reorderer ({!Join_reorder}) and the EXPLAIN
    display. Selectivities are the classic System-R defaults (equality 0.1,
    range 1/3, equi-join 1/max(|L|,|R|), ...); they only need to rank plans,
    not predict row counts. *)

open Storage

let sel_eq = 0.1
let sel_range = 1.0 /. 3.0
let sel_like = 0.25
let sel_null = 0.05

(** Heuristic selectivity of a predicate (independent of schema). *)
let rec selectivity (e : Scalar.t) : float =
  match e with
  | Scalar.Const (Value.Bool true) -> 1.0
  | Scalar.Const (Value.Bool false) -> 0.0
  | Scalar.Const _ | Scalar.Slot _ | Scalar.Col _ | Scalar.Param _ -> 0.5
  | Scalar.Binop (Sql.Ast.And, a, b) -> selectivity a *. selectivity b
  | Scalar.Binop (Sql.Ast.Or, a, b) ->
    let sa = selectivity a and sb = selectivity b in
    Float.min 1.0 (sa +. sb -. (sa *. sb))
  | Scalar.Binop (Sql.Ast.Eq, _, _) -> sel_eq
  | Scalar.Binop (Sql.Ast.Neq, _, _) -> 1.0 -. sel_eq
  | Scalar.Binop ((Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge), _, _) ->
    sel_range
  | Scalar.Binop (_, _, _) -> 0.5
  | Scalar.Not a -> Float.max 0.0 (1.0 -. selectivity a)
  | Scalar.Neg _ -> 0.5
  | Scalar.Is_null (_, false) -> sel_null
  | Scalar.Is_null (_, true) -> 1.0 -. sel_null
  | Scalar.Like (_, _, neg) -> if neg then 1.0 -. sel_like else sel_like
  | Scalar.In_list (_, vs, neg) ->
    let s = Float.min 0.9 (sel_eq *. float_of_int (Array.length vs)) in
    if neg then 1.0 -. s else s
  | Scalar.Case _ | Scalar.Func _ -> 0.5

(* An equality between columns of two different inputs behaves as an
   equi-join predicate: selectivity 1/max of the input cardinalities. *)
let is_equi_conjunct = function
  | Scalar.Binop (Sql.Ast.Eq, a, b) ->
    Scalar.free_cols a <> [] && Scalar.free_cols b <> []
  | _ -> false

(** Estimated output cardinality of a join of inputs sized [l] and [r]
    under the conjuncts [conjs] (already split). *)
let join_cardinality ~l ~r (conjs : Scalar.t list) : float =
  let equis, others = List.partition is_equi_conjunct conjs in
  let base =
    match equis with
    | [] -> l *. r
    | _ :: extra ->
      (* First equi key: 1/max; each extra equi key tightens by 0.2. *)
      List.fold_left
        (fun acc _ -> acc *. 0.2)
        (l *. r /. Float.max 1.0 (Float.max l r))
        extra
  in
  let s = List.fold_left (fun acc c -> acc *. selectivity c) 1.0 others in
  Float.max 1.0 (base *. s)

(** Estimated output cardinality of a plan. *)
let rec estimate (catalog : Catalog.t) (p : Logical.t) : float =
  match p with
  | Logical.Scan { table; _ } -> (
    if table = "$dual" then 1.0
    else
      match Catalog.find_opt catalog table with
      | Some t -> Float.max 1.0 (float_of_int (Table.cardinality t))
      | None -> 1000.0)
  | Logical.Filter { pred; child } ->
    Float.max 1.0 (estimate catalog child *. selectivity pred)
  | Logical.Project { child; _ } -> estimate catalog child
  | Logical.Join { kind; pred; left; right } -> (
    let l = estimate catalog left and r = estimate catalog right in
    let conjs = match pred with None -> [] | Some p -> Scalar.conjuncts p in
    let inner = join_cardinality ~l ~r conjs in
    match kind with
    | Logical.J_inner -> inner
    | Logical.J_left -> Float.max l inner)
  | Logical.Semi_join { left; _ } ->
    Float.max 1.0 (0.5 *. estimate catalog left)
  | Logical.Apply { kind; outer; inner } -> (
    let o = estimate catalog outer in
    match kind with
    | Logical.A_semi | Logical.A_anti -> Float.max 1.0 (0.5 *. o)
    | Logical.A_outer -> o *. estimate catalog inner)
  | Logical.Group_by { keys; child; _ } ->
    if keys = [] then 1.0
    else Float.max 1.0 (0.2 *. estimate catalog child)
  | Logical.Sort { child; _ } -> estimate catalog child
  | Logical.Limit { n; child } ->
    Float.min (float_of_int n) (estimate catalog child)
  | Logical.Distinct c -> Float.max 1.0 (0.5 *. estimate catalog c)
  | Logical.Audit { child; _ } -> estimate catalog child
  | Logical.Set_op { op; left; right } -> (
    let l = estimate catalog left and r = estimate catalog right in
    match op with
    | Sql.Ast.Union_all -> l +. r
    | Sql.Ast.Union -> Float.max 1.0 (0.75 *. (l +. r))
    | Sql.Ast.Except -> l
    | Sql.Ast.Intersect -> Float.max 1.0 (Float.min l r))
