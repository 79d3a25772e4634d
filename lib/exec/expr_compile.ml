(** Scalar expression compilation.

    [compile ctx e] walks the {!Plan.Scalar.t} tree {e once} and returns a
    [Tuple.t -> Value.t] closure, so the per-row hot path pays no AST
    dispatch: column references become direct array reads, constants are
    captured, each operator and function is bound at compile time to its
    rule in {!Plan.Scalar_eval} (the one definition of scalar semantics),
    AND/OR keep their Kleene shortcut, [IN]-list membership probes a
    pre-built hash set, and constant [LIKE] patterns are pre-classified
    into equality / prefix / suffix / substring matchers.

    The {!Eval} interpreter ([Scalar_eval] over the context) stays in the
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

let err = Scalar_eval.err

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
  | Scalar.Not a ->
    let f = compile_value ctx a in
    fun row -> Scalar_eval.not_ (f row)
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
  | Scalar.Func (Scalar.F_now, _) -> fun _ -> Value.Int ctx.Exec_ctx.now
  | Scalar.Func (Scalar.F_user_id, _) -> fun _ -> Value.Str ctx.Exec_ctx.user
  | Scalar.Func (Scalar.F_sql_text, _) -> fun _ -> Value.Str ctx.Exec_ctx.sql
  | Scalar.Func (f, args) ->
    Scalar_eval.func f (Array.of_list (List.map (compile_value ctx) args))

and compile_binop ctx op a b : compiled =
  let fa = compile_value ctx a and fb = compile_value ctx b in
  match op with
  | Sql.Ast.And -> (
    (* Kleene AND with shortcut. *)
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
  | op ->
    (* Bind the operands left-to-right explicitly: OCaml argument order is
       unspecified, and the interpreter's error behaviour (which operand's
       type error escapes) is part of the contract. *)
    let f = Scalar_eval.binop op in
    fun row ->
      let va = fa row in
      f va (fb row)

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
  | _ ->
    let fp = compile_value ctx p in
    fun row ->
      let va = fa row in
      Scalar_eval.like ~neg va (fp row)

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
