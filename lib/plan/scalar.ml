(** Bound scalar expressions.

    Column references are positional ([Col i] indexes the input tuple).
    [Param i] references column [i] of the outer row of the nearest enclosing
    [Apply] operator (correlated subqueries). [Slot] is a literal lifted
    out of a statement shape ({!lift}); only the database's shape cache
    builds plans with slots, and it fills them ({!fill}) before any engine
    sees the plan. Subqueries themselves never appear here — the binder
    hoists them into plan operators. *)

open Storage

type func =
  | F_extract_year
  | F_extract_month
  | F_substring
  | F_upper
  | F_lower
  | F_abs
  | F_coalesce
  | F_date_add of Sql.Ast.interval_unit
  | F_date_sub of Sql.Ast.interval_unit
  | F_now  (** session logical timestamp *)
  | F_user_id  (** session user *)
  | F_sql_text  (** SQL text of the triggering statement *)

type t =
  | Col of int
  | Const of Value.t
  | Param of int
  | Slot of int * Datatype.t  (** the [i]-th lifted literal, with its type *)
  | Binop of Sql.Ast.binop * t * t
  | Neg of t
  | Not of t
  | Is_null of t * bool  (** negated = IS NOT NULL *)
  | Like of t * t * bool  (** negated *)
  | In_list of t * Value.t array * bool  (** negated *)
  | Case of (t * t) list * t option
  | Func of func * t list

(** The value of [In_list (e, vs, neg)] when [e] is not NULL and equals
    no member of [vs]: NULL if a member is NULL (it might be equal), else
    FALSE, or TRUE when negated. A match gives TRUE (negated: FALSE), and
    a NULL [e] gives NULL. *)
let in_list_miss vs neg =
  if Array.exists Value.is_null vs then Value.Null else Value.Bool neg

let func_name = function
  | F_extract_year -> "extract_year"
  | F_extract_month -> "extract_month"
  | F_substring -> "substring"
  | F_upper -> "upper"
  | F_lower -> "lower"
  | F_abs -> "abs"
  | F_coalesce -> "coalesce"
  | F_date_add u -> "date_add_" ^ String.lowercase_ascii (Sql.Ast.string_of_unit u)
  | F_date_sub u -> "date_sub_" ^ String.lowercase_ascii (Sql.Ast.string_of_unit u)
  | F_now -> "now"
  | F_user_id -> "user_id"
  | F_sql_text -> "sql_text"

let rec pp ppf = function
  | Col i -> Fmt.pf ppf "#%d" i
  | Const v -> Fmt.pf ppf "%s" (Value.to_sql_literal v)
  | Param i -> Fmt.pf ppf "?%d" i
  | Slot (i, _) -> Fmt.pf ppf "$%d" (i + 1)
  | Binop (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp a (Sql.Ast.string_of_binop op) pp b
  | Neg e -> Fmt.pf ppf "(-%a)" pp e
  | Not e -> Fmt.pf ppf "(NOT %a)" pp e
  | Is_null (e, false) -> Fmt.pf ppf "(%a IS NULL)" pp e
  | Is_null (e, true) -> Fmt.pf ppf "(%a IS NOT NULL)" pp e
  | Like (e, p, neg) ->
    Fmt.pf ppf "(%a %sLIKE %a)" pp e (if neg then "NOT " else "") pp p
  | In_list (e, vs, neg) ->
    Fmt.pf ppf "(%a %sIN (%a))" pp e
      (if neg then "NOT " else "")
      Fmt.(array ~sep:(any ", ") Value.pp)
      vs
  | Case (whens, els) ->
    Fmt.pf ppf "CASE";
    List.iter (fun (c, v) -> Fmt.pf ppf " WHEN %a THEN %a" pp c pp v) whens;
    (match els with Some e -> Fmt.pf ppf " ELSE %a" pp e | None -> ());
    Fmt.pf ppf " END"
  | Func (f, args) ->
    Fmt.pf ppf "%s(%a)" (func_name f) Fmt.(list ~sep:(any ", ") pp) args

let to_string e = Fmt.str "%a" pp e

(* ------------------------------------------------------------------ *)
(* Structural traversals                                               *)
(* ------------------------------------------------------------------ *)

(** The direct sub-expressions of [e], left to right. *)
let children = function
  | Col _ | Const _ | Param _ | Slot _ -> []
  | Neg a | Not a | Is_null (a, _) | In_list (a, _, _) -> [ a ]
  | Binop (_, a, b) | Like (a, b, _) -> [ a; b ]
  | Case (whens, els) ->
    List.concat_map (fun (c, v) -> [ c; v ]) whens @ Option.to_list els
  | Func (_, args) -> args

(** Rebuild [e] with [f] applied to each direct sub-expression, left to
    right. *)
let map_children f e =
  match e with
  | Col _ | Const _ | Param _ | Slot _ -> e
  | Binop (op, a, b) ->
    let a = f a in
    Binop (op, a, f b)
  | Neg a -> Neg (f a)
  | Not a -> Not (f a)
  | Is_null (a, n) -> Is_null (f a, n)
  | Like (a, b, n) ->
    let a = f a in
    Like (a, f b, n)
  | In_list (a, vs, n) -> In_list (f a, vs, n)
  | Case (whens, els) ->
    let whens =
      List.map
        (fun (c, v) ->
          let c = f c in
          (c, f v))
        whens
    in
    Case (whens, Option.map f els)
  | Func (fn, args) -> Func (fn, List.map f args)

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

(** Set of input-column indexes referenced. *)
let free_cols e =
  fold (fun acc -> function Col i -> i :: acc | _ -> acc) [] e
  |> List.sort_uniq Int.compare

(** Set of outer-row (correlation) parameters referenced. *)
let free_params e =
  fold (fun acc -> function Param i -> i :: acc | _ -> acc) [] e
  |> List.sort_uniq Int.compare

(** Rebuild [e] with every leaf ([Col], [Const], [Param], [Slot])
    replaced by [f leaf], visiting the leaves left to right (a stateful
    [f] numbers equal expressions alike). *)
let rec map_leaves f e =
  match e with
  | Col _ | Const _ | Param _ | Slot _ -> f e
  | e -> map_children (map_leaves f) e

let map_cols f = map_leaves (function Col i -> f i | e -> e)

(** Renumber column references via [m] (total on referenced columns). *)
let shift_cols m e = map_cols (fun i -> Col (m i)) e

(** Substitute each column reference by a scalar (inlining a projection). *)
let subst_cols defs e = map_cols (fun i -> defs i) e

let map_params f = map_leaves (function Param i -> f i | e -> e)

(* ------------------------------------------------------------------ *)
(* Statement shapes                                                    *)
(* ------------------------------------------------------------------ *)

(** Replace every literal except TRUE, FALSE and NULL by a slot, left to
    right; [next v] records the literal and returns its slot number.
    Booleans stay: {!Cardinality.selectivity} reads them, and no stage
    after the logical optimizer reads any other literal's value. *)
let lift next =
  map_leaves (function
    | Const (Value.Int _ as v) -> Slot (next v, Datatype.T_int)
    | Const (Value.Float _ as v) -> Slot (next v, Datatype.T_float)
    | Const (Value.Str _ as v) -> Slot (next v, Datatype.T_string)
    | Const (Value.Date _ as v) -> Slot (next v, Datatype.T_date)
    | e -> e)

(** Put literal [lits.(i)] back into every [Slot i]. *)
let fill lits = map_leaves (function Slot (i, _) -> Const lits.(i) | e -> e)

(** Conjunction splitting: [a AND b AND c] -> [a; b; c]. *)
let rec conjuncts = function
  | Binop (Sql.Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: es -> List.fold_left (fun acc e -> Binop (Sql.Ast.And, acc, e)) e es

let equal : t -> t -> bool = Stdlib.( = )
