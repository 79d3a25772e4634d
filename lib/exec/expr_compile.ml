(** Scalar expression compilation.

    [compile ctx e] walks the {!Plan.Scalar.t} tree {e once} and returns a
    [Tuple.t -> Value.t] closure, so the per-row hot path pays no AST
    dispatch: column references become direct array reads, constants are
    captured, binary operators are specialized per opcode at compile time,
    [IN]-list membership probes a pre-built hash set, and constant [LIKE]
    patterns are pre-classified into equality / prefix / suffix /
    substring matchers.

    Semantics are defined by the {!Eval} interpreter, which stays in the
    tree as the reference oracle: every compiled closure must return
    exactly what [Eval.eval] returns (including SQL three-valued logic and
    error behaviour), a contract enforced by the randomized property suite
    in [test/test_expr_compile.ml]. Setting
    [ctx.Exec_ctx.interpret_exprs] makes [compile] fall back to the
    interpreter — the oracle mode used by parity tests and the
    before/after benchmark. *)

open Storage
open Plan

type compiled = Tuple.t -> Value.t

let err fmt = Fmt.kstr (fun s -> raise (Eval.Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* LIKE pattern pre-compilation                                        *)
(* ------------------------------------------------------------------ *)

let has_wildcard s = String.exists (fun c -> c = '%' || c = '_') s

let str_contains s lit =
  let nl = String.length lit and ns = String.length s in
  let rec go i = i + nl <= ns && (String.sub s i nl = lit || go (i + 1)) in
  nl = 0 || go 0

(** Classify a constant pattern once; the generic backtracking matcher
    ({!Value.like_match}) remains the fallback and the semantic oracle. *)
let like_compiled pattern : string -> bool =
  let n = String.length pattern in
  let inner l r = String.sub pattern l (n - l - r) in
  if not (has_wildcard pattern) then String.equal pattern
  else if
    n >= 2
    && pattern.[0] = '%'
    && pattern.[n - 1] = '%'
    && not (has_wildcard (inner 1 1))
  then
    let lit = inner 1 1 in
    fun s -> str_contains s lit
  else if n >= 1 && pattern.[n - 1] = '%' && not (has_wildcard (inner 0 1))
  then
    let prefix = inner 0 1 in
    fun s -> String.starts_with ~prefix s
  else if n >= 1 && pattern.[0] = '%' && not (has_wildcard (inner 1 0)) then
    let suffix = inner 1 0 in
    fun s -> String.ends_with ~suffix s
  else fun s -> Value.like_match ~pattern s

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec compile_value (ctx : Exec_ctx.t) (e : Scalar.t) : compiled =
  match e with
  | Scalar.Col i -> fun row -> row.(i)
  | Scalar.Const v -> fun _ -> v
  | Scalar.Param i -> (
    fun _ ->
      match ctx.Exec_ctx.params with
      | outer :: _ -> outer.(i)
      | [] -> err "correlation parameter ?%d outside an Apply" i)
  | Scalar.Slot (i, _) -> err "unfilled literal slot $%d" (i + 1)
  | Scalar.Binop (op, a, b) -> compile_binop ctx op a b
  | Scalar.Neg a ->
    let f = compile_value ctx a in
    fun row -> Value.neg (f row)
  | Scalar.Not a -> (
    let f = compile_value ctx a in
    fun row ->
      match f row with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | v -> err "NOT applied to non-boolean %s" (Value.to_string v))
  | Scalar.Is_null (a, neg) ->
    let f = compile_value ctx a in
    fun row -> Value.Bool (Value.is_null (f row) <> neg)
  | Scalar.Like (a, p, neg) -> compile_like ctx a p neg
  | Scalar.In_list (a, vs, neg) ->
    (* Membership by hash probe: [Value.hash] is consistent with
       [Value.equal] (Int/Float numeric unification included), so this
       matches the interpreter's linear [Array.exists] scan. *)
    let f = compile_value ctx a in
    let tbl = Value.Hashtbl_v.create (max 8 (2 * Array.length vs)) in
    Array.iter (fun v -> Value.Hashtbl_v.replace tbl v ()) vs;
    let hit = Value.Bool (not neg) and miss = Scalar.in_list_miss vs neg in
    fun row ->
      (match f row with
      | Value.Null -> Value.Null
      | v -> if Value.Hashtbl_v.mem tbl v then hit else miss)
  | Scalar.Case (whens, els) ->
    let whens =
      List.map (fun (c, v) -> (compile_value ctx c, compile_value ctx v)) whens
    in
    let els = Option.map (compile_value ctx) els in
    fun row ->
      let rec go = function
        | (c, v) :: rest -> (
          match c row with Value.Bool true -> v row | _ -> go rest)
        | [] -> ( match els with Some e -> e row | None -> Value.Null)
      in
      go whens
  | Scalar.Func (f, args) -> compile_func ctx f args

and compile_binop ctx op a b : compiled =
  match op with
  | Sql.Ast.And -> (
    (* Kleene AND with shortcut. *)
    let fa = compile_value ctx a and fb = compile_value ctx b in
    fun row ->
      match fa row with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> (
        match fb row with
        | (Value.Bool _ | Value.Null) as v -> v
        | v -> err "AND applied to %s" (Value.to_string v))
      | Value.Null -> (
        match fb row with
        | Value.Bool false -> Value.Bool false
        | _ -> Value.Null)
      | v -> err "AND applied to %s" (Value.to_string v))
  | Sql.Ast.Or -> (
    let fa = compile_value ctx a and fb = compile_value ctx b in
    fun row ->
      match fa row with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> (
        match fb row with
        | (Value.Bool _ | Value.Null) as v -> v
        | v -> err "OR applied to %s" (Value.to_string v))
      | Value.Null -> (
        match fb row with
        | Value.Bool true -> Value.Bool true
        | _ -> Value.Null)
      | v -> err "OR applied to %s" (Value.to_string v))
  | _ -> (
    let fa = compile_value ctx a and fb = compile_value ctx b in
    (* Bind the operands left-to-right explicitly: OCaml argument order is
       unspecified, and the interpreter's error behaviour (which operand's
       type error escapes) is part of the contract. *)
    let strict f row =
      let va = fa row in
      let vb = fb row in
      f va vb
    in
    let cmp f =
      strict (fun va vb ->
          match Value.compare_sql va vb with
          | None -> Value.Null
          | Some c -> Value.Bool (f c))
    in
    match op with
    | Sql.Ast.Add -> strict Value.add
    | Sql.Ast.Sub -> strict Value.sub
    | Sql.Ast.Mul -> strict Value.mul
    | Sql.Ast.Div -> strict Value.div
    | Sql.Ast.Mod -> strict Value.modulo
    | Sql.Ast.Eq -> cmp (fun c -> c = 0)
    | Sql.Ast.Neq -> cmp (fun c -> c <> 0)
    | Sql.Ast.Lt -> cmp (fun c -> c < 0)
    | Sql.Ast.Le -> cmp (fun c -> c <= 0)
    | Sql.Ast.Gt -> cmp (fun c -> c > 0)
    | Sql.Ast.Ge -> cmp (fun c -> c >= 0)
    | Sql.Ast.Concat ->
      strict (fun va vb ->
          match (va, vb) with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | a, b -> Value.Str (Value.to_string a ^ Value.to_string b))
    | Sql.Ast.And | Sql.Ast.Or -> assert false)

and compile_like ctx a p neg : compiled =
  let fa = compile_value ctx a in
  match p with
  | Scalar.Const (Value.Str pattern) -> (
    let matcher = like_compiled pattern in
    fun row ->
      match fa row with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Bool (matcher s <> neg)
      | v -> err "LIKE applied to non-string %s" (Value.to_string v))
  | _ -> (
    let fp = compile_value ctx p in
    fun row ->
      match (fa row, fp row) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Str s, Value.Str pattern ->
        Value.Bool (Value.like_match ~pattern s <> neg)
      | v, _ -> err "LIKE applied to non-string %s" (Value.to_string v))

and compile_func ctx f args : compiled =
  let cargs = Array.of_list (List.map (compile_value ctx) args) in
  let arg i row = cargs.(i) row in
  match f with
  | Scalar.F_now -> fun _ -> Value.Int ctx.Exec_ctx.now
  | Scalar.F_user_id -> fun _ -> Value.Str ctx.Exec_ctx.user
  | Scalar.F_sql_text -> fun _ -> Value.Str ctx.Exec_ctx.sql
  | Scalar.F_extract_year -> fun row -> Value.extract_year (arg 0 row)
  | Scalar.F_extract_month -> fun row -> Value.extract_month (arg 0 row)
  | Scalar.F_upper -> (
    fun row ->
      match arg 0 row with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v -> err "upper() on %s" (Value.to_string v))
  | Scalar.F_lower -> (
    fun row ->
      match arg 0 row with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v -> err "lower() on %s" (Value.to_string v))
  | Scalar.F_abs -> (
    fun row ->
      match arg 0 row with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> err "abs() on %s" (Value.to_string v))
  | Scalar.F_coalesce ->
    let n = Array.length cargs in
    fun row ->
      let rec go i =
        if i >= n then Value.Null
        else match cargs.(i) row with Value.Null -> go (i + 1) | v -> v
      in
      go 0
  | Scalar.F_substring -> (
    let has_len = Array.length cargs >= 3 in
    fun row ->
      match arg 0 row with
      | Value.Null -> Value.Null
      | Value.Str s ->
        let from = Value.to_int_exn (arg 1 row) in
        let len =
          if has_len then Value.to_int_exn (arg 2 row) else String.length s
        in
        (* SQL substring is 1-based; clamp to the string bounds. *)
        let start = max 0 (from - 1) in
        let len = max 0 (min len (String.length s - start)) in
        Value.Str
          (if start >= String.length s then "" else String.sub s start len)
      | v -> err "substring() on %s" (Value.to_string v))
  | Scalar.F_date_add u | Scalar.F_date_sub u -> (
    let sign = match f with Scalar.F_date_sub _ -> -1 | _ -> 1 in
    fun row ->
      match (arg 0 row, arg 1 row) with
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

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Compile an expression under [ctx]. When [ctx.interpret_exprs] is set,
    returns a thunk over the reference interpreter instead. *)
let compile (ctx : Exec_ctx.t) (e : Scalar.t) : compiled =
  if ctx.Exec_ctx.interpret_exprs then fun row -> Eval.eval ctx row e
  else compile_value ctx e

(** Compile a predicate: holds only when it evaluates to [Bool true]. *)
let compile_pred (ctx : Exec_ctx.t) (e : Scalar.t) : Tuple.t -> bool =
  let f = compile ctx e in
  fun row -> match f row with Value.Bool true -> true | _ -> false
