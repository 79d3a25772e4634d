(** Scalar evaluation with SQL three-valued logic.

    Comparisons involving NULL yield NULL; [AND]/[OR] use Kleene logic; a
    filter keeps a row only when its predicate evaluates to [Bool true]. *)

open Storage
open Plan

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let rec eval (ctx : Exec_ctx.t) (row : Tuple.t) (e : Scalar.t) : Value.t =
  match e with
  | Scalar.Col i -> row.(i)
  | Scalar.Const v -> v
  | Scalar.Param i -> (
    match ctx.Exec_ctx.params with
    | outer :: _ -> outer.(i)
    | [] -> err "correlation parameter ?%d outside an Apply" i)
  | Scalar.Slot (i, _) -> err "unfilled literal slot $%d" (i + 1)
  | Scalar.Binop (op, a, b) -> eval_binop ctx row op a b
  | Scalar.Neg a -> Value.neg (eval ctx row a)
  | Scalar.Not a -> (
    match eval ctx row a with
    | Value.Bool b -> Value.Bool (not b)
    | Value.Null -> Value.Null
    | v -> err "NOT applied to non-boolean %s" (Value.to_string v))
  | Scalar.Is_null (a, neg) ->
    Value.Bool (Value.is_null (eval ctx row a) <> neg)
  | Scalar.Like (a, p, neg) -> (
    match (eval ctx row a, eval ctx row p) with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Str s, Value.Str pattern ->
      Value.Bool (Value.like_match ~pattern s <> neg)
    | v, _ -> err "LIKE applied to non-string %s" (Value.to_string v))
  | Scalar.In_list (a, vs, neg) -> (
    match eval ctx row a with
    | Value.Null -> Value.Null
    | v ->
      if Array.exists (Value.equal v) vs then Value.Bool (not neg)
      else Scalar.in_list_miss vs neg)
  | Scalar.Case (whens, els) ->
    let rec go = function
      | (c, v) :: rest -> (
        match eval ctx row c with
        | Value.Bool true -> eval ctx row v
        | _ -> go rest)
      | [] -> (
        match els with Some e -> eval ctx row e | None -> Value.Null)
    in
    go whens
  | Scalar.Func (f, args) -> eval_func ctx row f args

and eval_binop ctx row op a b =
  match op with
  | Sql.Ast.And -> (
    (* Kleene AND with shortcut. *)
    match eval ctx row a with
    | Value.Bool false -> Value.Bool false
    | Value.Bool true -> (
      match eval ctx row b with
      | (Value.Bool _ | Value.Null) as v -> v
      | v -> err "AND applied to %s" (Value.to_string v))
    | Value.Null -> (
      match eval ctx row b with
      | Value.Bool false -> Value.Bool false
      | _ -> Value.Null)
    | v -> err "AND applied to %s" (Value.to_string v))
  | Sql.Ast.Or -> (
    match eval ctx row a with
    | Value.Bool true -> Value.Bool true
    | Value.Bool false -> (
      match eval ctx row b with
      | (Value.Bool _ | Value.Null) as v -> v
      | v -> err "OR applied to %s" (Value.to_string v))
    | Value.Null -> (
      match eval ctx row b with
      | Value.Bool true -> Value.Bool true
      | _ -> Value.Null)
    | v -> err "OR applied to %s" (Value.to_string v))
  | _ -> (
    let va = eval ctx row a in
    let vb = eval ctx row b in
    let cmp f =
      match Value.compare_sql va vb with
      | None -> Value.Null
      | Some c -> Value.Bool (f c)
    in
    match op with
    | Sql.Ast.Add -> Value.add va vb
    | Sql.Ast.Sub -> Value.sub va vb
    | Sql.Ast.Mul -> Value.mul va vb
    | Sql.Ast.Div -> Value.div va vb
    | Sql.Ast.Mod -> Value.modulo va vb
    | Sql.Ast.Eq -> cmp (fun c -> c = 0)
    | Sql.Ast.Neq -> cmp (fun c -> c <> 0)
    | Sql.Ast.Lt -> cmp (fun c -> c < 0)
    | Sql.Ast.Le -> cmp (fun c -> c <= 0)
    | Sql.Ast.Gt -> cmp (fun c -> c > 0)
    | Sql.Ast.Ge -> cmp (fun c -> c >= 0)
    | Sql.Ast.Concat -> (
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | a, b -> Value.Str (Value.to_string a ^ Value.to_string b))
    | Sql.Ast.And | Sql.Ast.Or -> assert false)

and eval_func ctx row f args =
  let arg i = eval ctx row (List.nth args i) in
  match f with
  | Scalar.F_now -> Value.Int ctx.Exec_ctx.now
  | Scalar.F_user_id -> Value.Str ctx.Exec_ctx.user
  | Scalar.F_sql_text -> Value.Str ctx.Exec_ctx.sql
  | Scalar.F_extract_year -> Value.extract_year (arg 0)
  | Scalar.F_extract_month -> Value.extract_month (arg 0)
  | Scalar.F_upper -> (
    match arg 0 with
    | Value.Null -> Value.Null
    | Value.Str s -> Value.Str (String.uppercase_ascii s)
    | v -> err "upper() on %s" (Value.to_string v))
  | Scalar.F_lower -> (
    match arg 0 with
    | Value.Null -> Value.Null
    | Value.Str s -> Value.Str (String.lowercase_ascii s)
    | v -> err "lower() on %s" (Value.to_string v))
  | Scalar.F_abs -> (
    match arg 0 with
    | Value.Null -> Value.Null
    | Value.Int i -> Value.Int (abs i)
    | Value.Float f -> Value.Float (Float.abs f)
    | v -> err "abs() on %s" (Value.to_string v))
  | Scalar.F_coalesce ->
    let rec go = function
      | [] -> Value.Null
      | a :: rest -> (
        match eval ctx row a with Value.Null -> go rest | v -> v)
    in
    go args
  | Scalar.F_substring -> (
    match arg 0 with
    | Value.Null -> Value.Null
    | Value.Str s ->
      let from = Value.to_int_exn (arg 1) in
      let len =
        if List.length args >= 3 then Value.to_int_exn (arg 2)
        else String.length s
      in
      (* SQL substring is 1-based; clamp to the string bounds. *)
      let start = max 0 (from - 1) in
      let len = max 0 (min len (String.length s - start)) in
      Value.Str (if start >= String.length s then "" else String.sub s start len)
    | v -> err "substring() on %s" (Value.to_string v))
  | Scalar.F_date_add u | Scalar.F_date_sub u -> (
    let sign = match f with Scalar.F_date_sub _ -> -1 | _ -> 1 in
    match (arg 0, arg 1) with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | d, Value.Int n -> (
      let z = Value.to_date_exn d in
      let n = sign * n in
      match u with
      | Sql.Ast.Days -> Value.Date (Value.add_days z n)
      | Sql.Ast.Months -> Value.Date (Value.add_months z n)
      | Sql.Ast.Years -> Value.Date (Value.add_years z n))
    | d, n ->
      err "date interval arithmetic on %s, %s" (Value.to_string d)
        (Value.to_string n))

(** A predicate holds only when it evaluates to [Bool true]. *)
let truthy ctx row pred =
  match eval ctx row pred with Value.Bool true -> true | _ -> false
