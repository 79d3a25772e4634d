(** The evaluator of bound scalars: the one definition of each operator
    and function, with SQL three-valued logic.

    Comparisons involving NULL yield NULL; [AND]/[OR] use Kleene logic; a
    filter keeps a row only when its predicate evaluates to [Bool true].
    [Exec.Eval] applies {!eval} to an execution context, constant folding
    ({!Optimizer.fold_scalar}) applies it to closed subtrees, and the
    compiled closures of [Exec.Expr_compile] take their operator and
    function rules from {!binop}, {!not_}, {!like} and {!func}. *)

open Storage

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

type env = {
  params : Tuple.t list;
      (** correlation stack: the nearest enclosing Apply's outer row is
          the head *)
  now : int;  (** [now()] *)
  user : string;  (** [user_id()] *)
  sql : string;  (** [sql_text()] *)
}

(** The rule of a binary operator whose operands are both evaluated
    (every operator but [AND]/[OR], which short-circuit). *)
let binop (op : Sql.Ast.binop) : Value.t -> Value.t -> Value.t =
  let cmp f a b =
    match Value.compare_sql a b with
    | None -> Value.Null
    | Some c -> Value.Bool (f c)
  in
  match op with
  | Sql.Ast.Add -> Value.add
  | Sql.Ast.Sub -> Value.sub
  | Sql.Ast.Mul -> Value.mul
  | Sql.Ast.Div -> Value.div
  | Sql.Ast.Mod -> Value.modulo
  | Sql.Ast.Eq -> cmp (fun c -> c = 0)
  | Sql.Ast.Neq -> cmp (fun c -> c <> 0)
  | Sql.Ast.Lt -> cmp (fun c -> c < 0)
  | Sql.Ast.Le -> cmp (fun c -> c <= 0)
  | Sql.Ast.Gt -> cmp (fun c -> c > 0)
  | Sql.Ast.Ge -> cmp (fun c -> c >= 0)
  | Sql.Ast.Concat -> (
    fun a b ->
      match (a, b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | a, b -> Value.Str (Value.to_string a ^ Value.to_string b))
  | Sql.Ast.And | Sql.Ast.Or -> invalid_arg "Scalar_eval.binop: AND/OR"

let not_ = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | v -> err "NOT applied to non-boolean %s" (Value.to_string v)

let like ~neg a pattern =
  match (a, pattern) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Str s, Value.Str pattern ->
    Value.Bool (Value.like_match ~pattern s <> neg)
  | v, _ -> err "LIKE applied to non-string %s" (Value.to_string v)

(** The rule of a non-session function over argument evaluators of any
    row type, chosen once: a compiled caller pays no dispatch per row.
    Arguments are evaluated on demand and left to right: [coalesce] stops
    at the first non-NULL, [substring] reads its bounds only for a
    string. *)
let func (f : Scalar.func) (args : ('r -> Value.t) array) : 'r -> Value.t =
  match f with
  | Scalar.F_extract_year -> fun r -> Value.extract_year (args.(0) r)
  | Scalar.F_extract_month -> fun r -> Value.extract_month (args.(0) r)
  | Scalar.F_upper -> (
    fun r ->
      match args.(0) r with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v -> err "upper() on %s" (Value.to_string v))
  | Scalar.F_lower -> (
    fun r ->
      match args.(0) r with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v -> err "lower() on %s" (Value.to_string v))
  | Scalar.F_abs -> (
    fun r ->
      match args.(0) r with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> err "abs() on %s" (Value.to_string v))
  | Scalar.F_coalesce ->
    let n = Array.length args in
    fun r ->
      let rec go i =
        if i >= n then Value.Null
        else match args.(i) r with Value.Null -> go (i + 1) | v -> v
      in
      go 0
  | Scalar.F_substring -> (
    let has_len = Array.length args >= 3 in
    fun r ->
      match args.(0) r with
      | Value.Null -> Value.Null
      | Value.Str s ->
        let from = Value.to_int_exn (args.(1) r) in
        let len =
          if has_len then Value.to_int_exn (args.(2) r) else String.length s
        in
        (* SQL substring is 1-based; clamp to the string bounds. *)
        let start = max 0 (from - 1) in
        let len = max 0 (min len (String.length s - start)) in
        Value.Str
          (if start >= String.length s then "" else String.sub s start len)
      | v -> err "substring() on %s" (Value.to_string v))
  | Scalar.F_date_add u | Scalar.F_date_sub u -> (
    let sign = match f with Scalar.F_date_sub _ -> -1 | _ -> 1 in
    fun r ->
      let d = args.(0) r in
      match (d, args.(1) r) with
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
  | Scalar.F_now | Scalar.F_user_id | Scalar.F_sql_text ->
    invalid_arg ("Scalar_eval.func: session function " ^ Scalar.func_name f)

(** Evaluate [e] against [row]; [Param]s read the head of [env.params].
    Raises {!Eval_error} (or [Value.Type_error] from arithmetic). *)
let rec eval (env : env) (row : Tuple.t) (e : Scalar.t) : Value.t =
  match e with
  | Scalar.Col i -> row.(i)
  | Scalar.Const v -> v
  | Scalar.Param i -> (
    match env.params with
    | outer :: _ -> outer.(i)
    | [] -> err "correlation parameter ?%d outside an Apply" i)
  | Scalar.Slot (i, _) -> err "unfilled literal slot $%d" (i + 1)
  | Scalar.Binop (Sql.Ast.And, a, b) -> (
    (* Kleene AND with shortcut. *)
    match eval env row a with
    | Value.Bool false -> Value.Bool false
    | Value.Bool true -> (
      match eval env row b with
      | (Value.Bool _ | Value.Null) as v -> v
      | v -> err "AND applied to %s" (Value.to_string v))
    | Value.Null -> (
      match eval env row b with
      | Value.Bool false -> Value.Bool false
      | _ -> Value.Null)
    | v -> err "AND applied to %s" (Value.to_string v))
  | Scalar.Binop (Sql.Ast.Or, a, b) -> (
    match eval env row a with
    | Value.Bool true -> Value.Bool true
    | Value.Bool false -> (
      match eval env row b with
      | (Value.Bool _ | Value.Null) as v -> v
      | v -> err "OR applied to %s" (Value.to_string v))
    | Value.Null -> (
      match eval env row b with
      | Value.Bool true -> Value.Bool true
      | _ -> Value.Null)
    | v -> err "OR applied to %s" (Value.to_string v))
  | Scalar.Binop (op, a, b) ->
    let va = eval env row a in
    binop op va (eval env row b)
  | Scalar.Neg a -> Value.neg (eval env row a)
  | Scalar.Not a -> not_ (eval env row a)
  | Scalar.Is_null (a, neg) ->
    Value.Bool (Value.is_null (eval env row a) <> neg)
  | Scalar.Like (a, p, neg) ->
    let va = eval env row a in
    like ~neg va (eval env row p)
  | Scalar.In_list (a, vs, neg) -> (
    match eval env row a with
    | Value.Null -> Value.Null
    | v ->
      if Array.exists (Value.equal v) vs then Value.Bool (not neg)
      else Scalar.in_list_miss vs neg)
  | Scalar.Case (whens, els) ->
    let rec go = function
      | (c, v) :: rest -> (
        match eval env row c with
        | Value.Bool true -> eval env row v
        | _ -> go rest)
      | [] -> (
        match els with Some e -> eval env row e | None -> Value.Null)
    in
    go whens
  | Scalar.Func (Scalar.F_now, _) -> Value.Int env.now
  | Scalar.Func (Scalar.F_user_id, _) -> Value.Str env.user
  | Scalar.Func (Scalar.F_sql_text, _) -> Value.Str env.sql
  | Scalar.Func (f, args) ->
    func f (Array.of_list (List.map (fun a row -> eval env row a) args)) row

(** A predicate holds only when it evaluates to [Bool true]. *)
let truthy env row pred =
  match eval env row pred with Value.Bool true -> true | _ -> false
