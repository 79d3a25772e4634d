(** Name resolution and logical-plan construction.

    The binder translates a parsed {!Sql.Ast.query} into a {!Logical.t} tree
    with all column references resolved to positions:

    - FROM builds a (cross/inner/left) join tree of scans and derived tables.
    - WHERE is split into conjuncts. [IN (subquery)] and [EXISTS] conjuncts
      become semi/anti joins (uncorrelated) or apply operators (correlated);
      scalar subqueries are hoisted into [A_outer] applies over a
      [LIMIT 1] inner whose appended column replaces the subquery in the
      expression.
    - Aggregation binds SELECT/HAVING/ORDER BY in a "post-group" mode that
      maps aggregate expressions and group keys to group-output positions.
    - DISTINCT, TOP/LIMIT and ORDER BY are stacked per SQL semantics. *)

open Storage

exception Bind_error of string

let err fmt = Fmt.kstr (fun s -> raise (Bind_error s)) fmt

type env = { catalog : Catalog.t; outer : Schema.t option }

(* ------------------------------------------------------------------ *)
(* Type inference (best effort; used for display schemas only)         *)
(* ------------------------------------------------------------------ *)

let rec infer_type (schema : Schema.t) (e : Scalar.t) : Datatype.t =
  match e with
  | Scalar.Col i ->
    if i < Schema.arity schema then (Schema.col schema i).Schema.ty
    else Datatype.T_float
  | Scalar.Const v -> (
    match v with
    | Value.Null -> Datatype.T_string
    | Value.Bool _ -> Datatype.T_bool
    | Value.Int _ -> Datatype.T_int
    | Value.Float _ -> Datatype.T_float
    | Value.Str _ -> Datatype.T_string
    | Value.Date _ -> Datatype.T_date)
  | Scalar.Param _ -> Datatype.T_float
  | Scalar.Slot (_, ty) -> ty
  | Scalar.Binop (op, a, b) -> (
    match op with
    | Sql.Ast.And | Sql.Ast.Or | Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt
    | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge ->
      Datatype.T_bool
    | Sql.Ast.Concat -> Datatype.T_string
    | Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul | Sql.Ast.Div | Sql.Ast.Mod -> (
      match (infer_type schema a, infer_type schema b) with
      | Datatype.T_int, Datatype.T_int -> Datatype.T_int
      | Datatype.T_date, _ | _, Datatype.T_date -> Datatype.T_date
      | _ -> Datatype.T_float))
  | Scalar.Neg a -> infer_type schema a
  | Scalar.Not _ | Scalar.Is_null _ | Scalar.Like _ | Scalar.In_list _ ->
    Datatype.T_bool
  | Scalar.Case (whens, els) -> (
    match (whens, els) with
    | (_, v) :: _, _ -> infer_type schema v
    | [], Some e -> infer_type schema e
    | [], None -> Datatype.T_string)
  | Scalar.Func (f, args) -> (
    match f with
    | Scalar.F_extract_year | Scalar.F_extract_month | Scalar.F_now ->
      Datatype.T_int
    | Scalar.F_substring | Scalar.F_upper | Scalar.F_lower
    | Scalar.F_user_id | Scalar.F_sql_text ->
      Datatype.T_string
    | Scalar.F_abs -> (
      match args with
      | [ a ] -> infer_type schema a
      | _ -> Datatype.T_float)
    | Scalar.F_coalesce -> (
      match args with
      | a :: _ -> infer_type schema a
      | [] -> Datatype.T_string)
    | Scalar.F_date_add _ | Scalar.F_date_sub _ -> Datatype.T_date)

(* ------------------------------------------------------------------ *)
(* Scalar binding (no subqueries)                                      *)
(* ------------------------------------------------------------------ *)

let bind_column env (schema : Schema.t) qualifier name : Scalar.t =
  let local () =
    match Schema.find_all schema ?qualifier name with
    | [ i ] -> Some (Scalar.Col i)
    | [] -> None
    | _ :: _ :: _ ->
      err "ambiguous column reference %s"
        (match qualifier with Some q -> q ^ "." ^ name | None -> name)
  in
  match local () with
  | Some c -> c
  | None -> (
    match env.outer with
    | Some outer -> (
      match Schema.find_all outer ?qualifier name with
      | [ i ] -> Scalar.Param i
      | [] ->
        err "unknown column %s"
          (match qualifier with Some q -> q ^ "." ^ name | None -> name)
      | _ ->
        err "ambiguous outer column reference %s"
          (match qualifier with Some q -> q ^ "." ^ name | None -> name))
    | None ->
      err "unknown column %s"
        (match qualifier with Some q -> q ^ "." ^ name | None -> name))

let scalar_func_of_name name nargs =
  match (String.lowercase_ascii name, nargs) with
  | "extract_year", 1 -> Scalar.F_extract_year
  | "extract_month", 1 -> Scalar.F_extract_month
  | "substring", (2 | 3) -> Scalar.F_substring
  | "upper", 1 -> Scalar.F_upper
  | "lower", 1 -> Scalar.F_lower
  | "abs", 1 -> Scalar.F_abs
  | "coalesce", _ when nargs >= 1 -> Scalar.F_coalesce
  | "now", 0 -> Scalar.F_now
  | "user_id", 0 | "userid", 0 -> Scalar.F_user_id
  | "sql_text", 0 | "sql", 0 -> Scalar.F_sql_text
  | n, k -> err "unknown function %s/%d" n k

(** Bind an expression containing no subqueries. [subquery] is called on
    subquery nodes so callers can hoist; the default errors out. *)
let rec bind_scalar ?(subquery = fun _ -> err "subquery not allowed here") env
    schema (e : Sql.Ast.expr) : Scalar.t =
  let bind e = bind_scalar ~subquery env schema e in
  match e with
  | Sql.Ast.E_null -> Scalar.Const Value.Null
  | Sql.Ast.E_bool b -> Scalar.Const (Value.Bool b)
  | Sql.Ast.E_int i -> Scalar.Const (Value.Int i)
  | Sql.Ast.E_float f -> Scalar.Const (Value.Float f)
  | Sql.Ast.E_string s -> Scalar.Const (Value.Str s)
  | Sql.Ast.E_date s -> Scalar.Const (Value.Date (Value.date_of_string s))
  | Sql.Ast.E_interval _ ->
    err "INTERVAL literal only allowed as the right operand of date + or -"
  | Sql.Ast.E_column (q, n) -> bind_column env schema q n
  | Sql.Ast.E_binop ((Sql.Ast.Add | Sql.Ast.Sub) as op, a, Sql.Ast.E_interval (n, u)) ->
    let f =
      if op = Sql.Ast.Add then Scalar.F_date_add u else Scalar.F_date_sub u
    in
    Scalar.Func (f, [ bind a; Scalar.Const (Value.Int n) ])
  | Sql.Ast.E_binop (op, a, b) -> Scalar.Binop (op, bind a, bind b)
  | Sql.Ast.E_neg a -> Scalar.Neg (bind a)
  | Sql.Ast.E_not a -> Scalar.Not (bind a)
  | Sql.Ast.E_is_null (a, neg) -> Scalar.Is_null (bind a, neg)
  | Sql.Ast.E_like (a, p, neg) -> Scalar.Like (bind a, bind p, neg)
  | Sql.Ast.E_between (a, lo, hi) ->
    let a' = bind a in
    Scalar.Binop
      ( Sql.Ast.And,
        Scalar.Binop (Sql.Ast.Ge, a', bind lo),
        Scalar.Binop (Sql.Ast.Le, a', bind hi) )
  | Sql.Ast.E_in_list (a, items, neg) ->
    let a' = bind a in
    let bound = List.map bind items in
    let all_const =
      List.for_all (function Scalar.Const _ -> true | _ -> false) bound
    in
    if all_const then
      let vs =
        Array.of_list
          (List.map (function Scalar.Const v -> v | _ -> assert false) bound)
      in
      Scalar.In_list (a', vs, neg)
    else
      (* Desugar to a disjunction of equalities. *)
      let eqs =
        List.map (fun b -> Scalar.Binop (Sql.Ast.Eq, a', b)) bound
      in
      let disj =
        match eqs with
        | [] -> Scalar.Const (Value.Bool false)
        | e :: es ->
          List.fold_left (fun acc e -> Scalar.Binop (Sql.Ast.Or, acc, e)) e es
      in
      if neg then Scalar.Not disj else disj
  | Sql.Ast.E_case (whens, els) ->
    Scalar.Case
      ( List.map (fun (c, v) -> (bind c, bind v)) whens,
        Option.map bind els )
  | Sql.Ast.E_func (name, args) ->
    let f = scalar_func_of_name name (List.length args) in
    Scalar.Func (f, List.map bind args)
  | Sql.Ast.E_agg _ -> err "aggregate not allowed in this context"
  | Sql.Ast.E_subquery q -> subquery q
  | Sql.Ast.E_in_query _ | Sql.Ast.E_exists _ ->
    err "IN/EXISTS subquery only allowed as a WHERE conjunct"

(* ------------------------------------------------------------------ *)
(* FROM clause                                                         *)
(* ------------------------------------------------------------------ *)

let dual_alias = "$dual"

let scan_of_table env name alias =
  match Catalog.find_opt env.catalog name with
  | None -> err "unknown table %s" name
  | Some t ->
    let schema = Schema.with_qualifier alias (Table.schema t) in
    Logical.Scan { table = Table.name t; alias; schema; cols = None }

let rec bind_query env (q : Sql.Ast.query) : Logical.t =
  if q.Sql.Ast.set_ops = [] then bind_simple_query env q
  else bind_set_query env q

(** Set-operation queries: components bind independently; the last
    component's ORDER BY/LIMIT order the combined result (SQL's textual
    layout). Column names come from the first component. *)
and bind_set_query env (q : Sql.Ast.query) : Logical.t =
  let first = { q with Sql.Ast.set_ops = [] } in
  let rec split acc = function
    | [] -> err "bind_set_query: empty set_ops"
    | [ (op, last) ] -> (List.rev acc, op, last)
    | (op, mid) :: rest -> split ((op, mid) :: acc) rest
  in
  let middles, last_op, last = split [] q.Sql.Ast.set_ops in
  let check_no_order (c : Sql.Ast.query) =
    if c.Sql.Ast.order_by <> [] || c.Sql.Ast.limit <> None then
      err "ORDER BY/LIMIT is only allowed on the last component of a set \
           operation"
  in
  check_no_order first;
  List.iter (fun (_, c) -> check_no_order c) middles;
  let order_by = last.Sql.Ast.order_by in
  let limit =
    match (last.Sql.Ast.limit, q.Sql.Ast.top) with
    | Some l, _ -> Some l
    | None, t -> t
  in
  let last = { last with Sql.Ast.order_by = []; limit = None } in
  let bound_first = bind_simple_query env first in
  let combine acc (op, comp) =
    let bound = bind_simple_query env { comp with Sql.Ast.set_ops = [] } in
    if Logical.arity bound <> Logical.arity acc then
      err "set operation components differ in column count (%d vs %d)"
        (Logical.arity acc) (Logical.arity bound);
    Logical.Set_op { op; left = acc; right = bound }
  in
  let plan =
    List.fold_left combine bound_first (middles @ [ (last_op, last) ])
  in
  let out_schema = Logical.schema plan in
  let plan =
    if order_by = [] then plan
    else
      let keys =
        List.map (fun (e, d) -> (bind_scalar env out_schema e, d)) order_by
      in
      Logical.Sort { keys; child = plan }
  in
  match limit with
  | Some n -> Logical.Limit { n; child = plan }
  | None -> plan

and bind_simple_query env (q : Sql.Ast.query) : Logical.t =
  let plan =
    match q.Sql.Ast.from with
    | [] ->
      (* FROM-less SELECT: a one-row, zero-column source. *)
      Logical.Scan
        { table = dual_alias; alias = dual_alias; schema = [||]; cols = None }
    | refs ->
      let plans = List.map (bind_table_ref env) refs in
      List.fold_left
        (fun acc p ->
          match acc with
          | None -> Some p
          | Some l ->
            Some (Logical.Join { kind = Logical.J_inner; pred = None; left = l; right = p }))
        None plans
      |> Option.get
  in
  let plan =
    match q.Sql.Ast.where with
    | None -> plan
    | Some w -> bind_where env plan w
  in
  bind_projection env plan q

and bind_table_ref env = function
  | Sql.Ast.Tr_table (name, alias) ->
    scan_of_table env name (Option.value alias ~default:name)
  | Sql.Ast.Tr_subquery (sub, alias) ->
    let p = bind_query env sub in
    let s = Logical.schema p in
    let cols =
      List.init (Schema.arity s) (fun i ->
          let c = Schema.col s i in
          (Scalar.Col i, { c with Schema.qualifier = Some alias }))
    in
    Logical.Project { cols; child = p }
  | Sql.Ast.Tr_join (l, jt, r, on) ->
    let lp = bind_table_ref env l in
    let rp = bind_table_ref env r in
    let kind =
      match jt with
      | Sql.Ast.Inner | Sql.Ast.Cross -> Logical.J_inner
      | Sql.Ast.Left_outer -> Logical.J_left
    in
    let joined_schema = Schema.append (Logical.schema lp) (Logical.schema rp) in
    let pred = Option.map (bind_scalar env joined_schema) on in
    Logical.Join { kind; pred; left = lp; right = rp }

(* --------------------------------------------------------------- *)
(* WHERE: conjunct-by-conjunct, decorrelating subqueries            *)
(* --------------------------------------------------------------- *)

and ast_conjuncts = function
  | Sql.Ast.E_binop (Sql.Ast.And, a, b) -> ast_conjuncts a @ ast_conjuncts b
  | e -> [ e ]

and try_bind_subquery_plan env (sub : Sql.Ast.query) :
    [ `Uncorrelated of Logical.t | `Correlated ] =
  match bind_query { env with outer = None } sub with
  | p -> `Uncorrelated p
  | exception Bind_error _ -> `Correlated

and bind_where env plan w : Logical.t =
  List.fold_left (bind_conjunct env) plan (ast_conjuncts w)

and bind_conjunct env plan (c : Sql.Ast.expr) : Logical.t =
  let schema = Logical.schema plan in
  match c with
  | Sql.Ast.E_exists (sub, neg) | Sql.Ast.E_not (Sql.Ast.E_exists (sub, neg))
    -> (
    let neg =
      match c with Sql.Ast.E_not _ -> not neg | _ -> neg
    in
    match try_bind_subquery_plan env sub with
    | `Uncorrelated inner ->
      (* EXISTS over an uncorrelated subquery: constant-key semi join. *)
      let one = Scalar.Const (Value.Int 1) in
      let inner =
        Logical.Project
          {
            cols = [ (one, Schema.column "$one" Datatype.T_int) ];
            child = inner;
          }
      in
      Logical.Semi_join
        { anti = neg; left = plan; left_key = one; right = inner;
          right_key = Scalar.Col 0 }
    | `Correlated ->
      let inner = bind_query { env with outer = Some schema } sub in
      Logical.Apply
        {
          kind = (if neg then Logical.A_anti else Logical.A_semi);
          outer = plan;
          inner;
        })
  | Sql.Ast.E_in_query (e, sub, neg) -> (
    match try_bind_subquery_plan env sub with
    | `Uncorrelated inner ->
      if Logical.arity inner <> 1 then
        err "IN subquery must return exactly one column";
      let left_key = bind_scalar env schema e in
      Logical.Semi_join
        { anti = neg; left = plan; left_key; right = inner;
          right_key = Scalar.Col 0 }
    | `Correlated ->
      (* x IN (corr-subquery) ==> semi-apply of the subquery with an extra
         equality filter [sel = x]. SQL scoping matters here: [x] resolves
         in the *outer* scope, so it is bound against the outer schema first
         and its column references are lifted into correlation parameters —
         rewriting it textually into the subquery would capture same-named
         inner columns. *)
      let outer_e = bind_scalar env schema e in
      let lifted_e = Scalar.map_cols (fun i -> Scalar.Param i) outer_e in
      let inner = bind_query { env with outer = Some schema } sub in
      if Logical.arity inner <> 1 then
        err "correlated IN subquery must select exactly one expression";
      (* NOT IN is FALSE when some inner value equals [x] and NULL when a
         comparison is NULL, so the anti-apply keeps the outer row only
         when no comparison is TRUE or NULL. *)
      let eq = Scalar.Binop (Sql.Ast.Eq, Scalar.Col 0, lifted_e) in
      let pred =
        if neg then Scalar.Binop (Sql.Ast.Or, eq, Scalar.Is_null (eq, false))
        else eq
      in
      let inner = Logical.Filter { pred; child = inner } in
      Logical.Apply
        {
          kind = (if neg then Logical.A_anti else Logical.A_semi);
          outer = plan;
          inner;
        })
  | _ ->
    (* Plain predicate; scalar subqueries inside are hoisted into applies. *)
    let plan_ref = ref plan in
    let pred = bind_scalar_hoisting env plan_ref c in
    Logical.Filter { pred; child = !plan_ref }

(** Bind an expression over [!plan_ref]'s schema, hoisting scalar subqueries
    into [A_outer] applies stacked onto [plan_ref]. *)
and bind_scalar_hoisting env plan_ref (e : Sql.Ast.expr) : Scalar.t =
  let subquery sub =
    let outer_schema = Logical.schema !plan_ref in
    let inner =
      match try_bind_subquery_plan env sub with
      | `Uncorrelated p -> p
      | `Correlated -> bind_query { env with outer = Some outer_schema } sub
    in
    let inner_schema = Logical.schema inner in
    if Schema.arity inner_schema <> 1 then
      err "scalar subquery must return exactly one column";
    (* The appended column is unqualified, so it never shadows an outer
       column of the same qualified name. *)
    let out_col =
      { (Schema.col inner_schema 0) with Schema.qualifier = None }
    in
    let inner =
      match inner with
      | Logical.Project { cols = [ (e, _) ]; child } ->
        Logical.Project { cols = [ (e, out_col) ]; child }
      | _ ->
        Logical.Project { cols = [ (Scalar.Col 0, out_col) ]; child = inner }
    in
    plan_ref :=
      Logical.Apply
        { kind = Logical.A_outer; outer = !plan_ref;
          inner = Logical.Limit { n = 1; child = inner } };
    Scalar.Col (Schema.arity outer_schema)
  in
  (* Rebind against the *current* schema each time: hoisting only appends
     columns, so previously bound indexes stay valid. *)
  bind_scalar ~subquery env (Logical.schema !plan_ref) e

(* --------------------------------------------------------------- *)
(* SELECT list / GROUP BY / HAVING / ORDER BY / DISTINCT / LIMIT    *)
(* --------------------------------------------------------------- *)

and has_aggregate (e : Sql.Ast.expr) : bool =
  match e with
  | Sql.Ast.E_agg _ -> true
  | Sql.Ast.E_null | Sql.Ast.E_bool _ | Sql.Ast.E_int _ | Sql.Ast.E_float _
  | Sql.Ast.E_string _ | Sql.Ast.E_date _ | Sql.Ast.E_interval _
  | Sql.Ast.E_column _ ->
    false
  | Sql.Ast.E_binop (_, a, b) | Sql.Ast.E_like (a, b, _) ->
    has_aggregate a || has_aggregate b
  | Sql.Ast.E_neg a | Sql.Ast.E_not a | Sql.Ast.E_is_null (a, _) ->
    has_aggregate a
  | Sql.Ast.E_between (a, b, c) ->
    has_aggregate a || has_aggregate b || has_aggregate c
  | Sql.Ast.E_in_list (a, items, _) ->
    has_aggregate a || List.exists has_aggregate items
  | Sql.Ast.E_case (whens, els) ->
    List.exists (fun (c, v) -> has_aggregate c || has_aggregate v) whens
    || (match els with Some e -> has_aggregate e | None -> false)
  | Sql.Ast.E_func (_, args) -> List.exists has_aggregate args
  | Sql.Ast.E_in_query _ | Sql.Ast.E_exists _ | Sql.Ast.E_subquery _ -> false

and select_item_exprs (q : Sql.Ast.query) =
  List.filter_map
    (function Sql.Ast.Si_expr (e, _) -> Some e | _ -> None)
    q.Sql.Ast.select

and query_needs_grouping (q : Sql.Ast.query) =
  q.Sql.Ast.group_by <> []
  || List.exists has_aggregate (select_item_exprs q)
  || (match q.Sql.Ast.having with Some h -> has_aggregate h | None -> false)

and agg_func_of_name = function
  | "count" -> Logical.Count
  | "sum" -> Logical.Sum
  | "avg" -> Logical.Avg
  | "min" -> Logical.Min
  | "max" -> Logical.Max
  | n -> err "unknown aggregate %s" n

(** Binding mode for expressions above a GROUP BY. *)
and bind_post_group env ~child_schema ~keys ~(aggs : Logical.agg list ref)
    (e : Sql.Ast.expr) : Scalar.t =
  let nkeys = List.length keys in
  let rec go (e : Sql.Ast.expr) : Scalar.t =
    match e with
    | Sql.Ast.E_agg { func; arg; distinct } ->
      let func = agg_func_of_name func in
      let arg = Option.map (bind_scalar env child_schema) arg in
      let existing =
        List.find_index
          (fun (a : Logical.agg) ->
            a.Logical.func = func && a.Logical.distinct = distinct
            && (match (a.Logical.arg, arg) with
               | None, None -> true
               | Some x, Some y -> Scalar.equal x y
               | _ -> false))
          !aggs
      in
      let idx =
        match existing with
        | Some i -> i
        | None ->
          let name =
            Printf.sprintf "%s_%d" (Logical.agg_func_name func)
              (List.length !aggs)
          in
          let out =
            Schema.column name
              (match (func, arg) with
              | Logical.Count, _ -> Datatype.T_int
              | _, Some a -> infer_type child_schema a
              | _, None -> Datatype.T_float)
          in
          aggs := !aggs @ [ { Logical.func; arg; distinct; out } ];
          List.length !aggs - 1
      in
      Scalar.Col (nkeys + idx)
    | _ -> (
      (* Does this expression coincide with a grouping key? *)
      let as_key =
        match bind_scalar env child_schema e with
        | s ->
          List.find_index (fun k -> Scalar.equal k s) keys
          |> Option.map (fun i -> Scalar.Col i)
        | exception Bind_error _ -> None
      in
      match as_key with
      | Some c -> c
      | None -> (
        match e with
        | Sql.Ast.E_column (q, n) ->
          err "column %s must appear in GROUP BY or inside an aggregate"
            (match q with Some q -> q ^ "." ^ n | None -> n)
        | Sql.Ast.E_binop (op, a, b) -> (
          match (op, b) with
          | (Sql.Ast.Add | Sql.Ast.Sub), Sql.Ast.E_interval (n, u) ->
            let f =
              if op = Sql.Ast.Add then Scalar.F_date_add u
              else Scalar.F_date_sub u
            in
            Scalar.Func (f, [ go a; Scalar.Const (Value.Int n) ])
          | _ -> Scalar.Binop (op, go a, go b))
        | Sql.Ast.E_neg a -> Scalar.Neg (go a)
        | Sql.Ast.E_not a -> Scalar.Not (go a)
        | Sql.Ast.E_is_null (a, neg) -> Scalar.Is_null (go a, neg)
        | Sql.Ast.E_like (a, p, neg) -> Scalar.Like (go a, go p, neg)
        | Sql.Ast.E_between (a, lo, hi) ->
          let a' = go a in
          Scalar.Binop
            ( Sql.Ast.And,
              Scalar.Binop (Sql.Ast.Ge, a', go lo),
              Scalar.Binop (Sql.Ast.Le, a', go hi) )
        | Sql.Ast.E_case (whens, els) ->
          Scalar.Case
            ( List.map (fun (c, v) -> (go c, go v)) whens,
              Option.map go els )
        | Sql.Ast.E_func (name, args) ->
          let f = scalar_func_of_name name (List.length args) in
          Scalar.Func (f, List.map go args)
        | Sql.Ast.E_in_list (a, items, neg) ->
          let bound = List.map go items in
          let a' = go a in
          let all_const =
            List.for_all (function Scalar.Const _ -> true | _ -> false) bound
          in
          if all_const then
            Scalar.In_list
              ( a',
                Array.of_list
                  (List.map
                     (function Scalar.Const v -> v | _ -> assert false)
                     bound),
                neg )
          else err "non-constant IN list above GROUP BY"
        | Sql.Ast.E_null | Sql.Ast.E_bool _ | Sql.Ast.E_int _
        | Sql.Ast.E_float _ | Sql.Ast.E_string _ | Sql.Ast.E_date _ ->
          bind_scalar env [||] e
        | _ ->
          err "unsupported expression above GROUP BY: %s"
            (Sql.Ast.expr_to_string e)))
  in
  go e

(** Output column name for a select item. *)
and output_column env schema (e : Sql.Ast.expr) (alias : string option)
    (bound : Scalar.t) idx : Schema.column =
  ignore env;
  match alias with
  | Some a -> Schema.column a (infer_type schema bound)
  | None -> (
    match e with
    | Sql.Ast.E_column (q, n) -> Schema.column ?qualifier:q n (infer_type schema bound)
    | Sql.Ast.E_agg { func; _ } ->
      Schema.column func (infer_type schema bound)
    | _ -> Schema.column (Printf.sprintf "col_%d" idx) (infer_type schema bound))

(** Resolve ORDER BY items that name a select alias to the aliased expr. *)
and resolve_order_alias (q : Sql.Ast.query) (e : Sql.Ast.expr) : Sql.Ast.expr =
  match e with
  | Sql.Ast.E_column (None, n) -> (
    let matching =
      List.find_map
        (function
          | Sql.Ast.Si_expr (se, Some a) when Schema.equal_names a n -> Some se
          | _ -> None)
        q.Sql.Ast.select
    in
    match matching with Some se -> se | None -> e)
  | _ -> e

and bind_projection env plan (q : Sql.Ast.query) : Logical.t =
  let grouped = query_needs_grouping q in
  if grouped then bind_grouped_projection env plan q
  else bind_plain_projection env plan q

and expand_star schema =
  List.init (Schema.arity schema) (fun i ->
      (Scalar.Col i, Schema.col schema i))

and bind_plain_projection env plan q : Logical.t =
  let plan_ref = ref plan in
  (* Bind select items first (may hoist scalar-subquery applies). *)
  let items =
    List.concat_map
      (fun item ->
        let schema = Logical.schema !plan_ref in
        match item with
        | Sql.Ast.Si_star -> expand_star schema
        | Sql.Ast.Si_table_star tname ->
          let cols =
            List.filteri
              (fun _ (c : Schema.column) ->
                match c.Schema.qualifier with
                | Some q -> Schema.equal_names q tname
                | None -> false)
              (Array.to_list schema)
          in
          if cols = [] then err "unknown table %s in %s.*" tname tname;
          List.filter_map
            (fun (c : Schema.column) ->
              match Schema.find_all schema ?qualifier:c.Schema.qualifier
                      c.Schema.name with
              | [ i ] -> Some (Scalar.Col i, c)
              | _ -> None)
            cols
        | Sql.Ast.Si_expr (e, alias) ->
          let bound = bind_scalar_hoisting env plan_ref e in
          let schema = Logical.schema !plan_ref in
          [ (bound, output_column env schema e alias bound 0) ])
      q.Sql.Ast.select
  in
  (* Number anonymous output columns. *)
  let items =
    List.mapi
      (fun i (s, (c : Schema.column)) ->
        if String.length c.Schema.name >= 4 && String.sub c.Schema.name 0 4 = "col_"
        then (s, { c with Schema.name = Printf.sprintf "col_%d" i })
        else (s, c))
      items
  in
  let plan = !plan_ref in
  let pre_schema = Logical.schema plan in
  if q.Sql.Ast.distinct then begin
    (* Project -> Distinct -> Sort(on output) -> Limit. *)
    let projected = Logical.Project { cols = items; child = plan } in
    let out_schema = Logical.schema projected in
    let plan = Logical.Distinct projected in
    let plan =
      if q.Sql.Ast.order_by = [] then plan
      else
        let keys =
          List.map
            (fun (e, d) ->
              let e = resolve_order_alias q e in
              (bind_scalar env out_schema e, d))
            q.Sql.Ast.order_by
        in
        Logical.Sort { keys; child = plan }
    in
    apply_limit q plan
  end
  else begin
    (* Sort/Limit below the projection (row-count preserving). *)
    let plan =
      if q.Sql.Ast.order_by = [] then plan
      else
        let keys =
          List.map
            (fun (e, d) ->
              let e = resolve_order_alias q e in
              (bind_scalar env pre_schema e, d))
            q.Sql.Ast.order_by
        in
        Logical.Sort { keys; child = plan }
    in
    let plan = apply_limit q plan in
    Logical.Project { cols = items; child = plan }
  end

and apply_limit (q : Sql.Ast.query) plan =
  let n =
    match (q.Sql.Ast.top, q.Sql.Ast.limit) with
    | Some t, Some l -> Some (min t l)
    | Some t, None -> Some t
    | None, l -> l
  in
  match n with Some n -> Logical.Limit { n; child = plan } | None -> plan

and bind_grouped_projection env plan q : Logical.t =
  let child_schema = Logical.schema plan in
  let keys_with_ast =
    List.map
      (fun e -> (e, bind_scalar env child_schema e))
      q.Sql.Ast.group_by
  in
  let keys = List.map snd keys_with_ast in
  let key_cols =
    List.mapi
      (fun i (ast, s) ->
        let col =
          match ast with
          | Sql.Ast.E_column (qual, n) ->
            Schema.column ?qualifier:qual n (infer_type child_schema s)
          | _ -> Schema.column (Printf.sprintf "key_%d" i) (infer_type child_schema s)
        in
        (s, col))
      keys_with_ast
  in
  let aggs = ref [] in
  let bind_pg e = bind_post_group env ~child_schema ~keys ~aggs e in
  (* Bind select items (fills the agg list). *)
  let items =
    List.mapi
      (fun i item ->
        match item with
        | Sql.Ast.Si_star | Sql.Ast.Si_table_star _ ->
          err "SELECT * is not valid in an aggregate query"
        | Sql.Ast.Si_expr (e, alias) ->
          let bound = bind_pg e in
          (e, alias, bound, i))
      q.Sql.Ast.select
  in
  let having = Option.map bind_pg q.Sql.Ast.having in
  let order_keys =
    List.map
      (fun (e, d) -> (bind_pg (resolve_order_alias q e), d))
      q.Sql.Ast.order_by
  in
  (* Now the agg list is complete: build the pipeline. *)
  let plan =
    Logical.Group_by { keys = key_cols; aggs = !aggs; child = plan }
  in
  let group_schema = Logical.schema plan in
  let plan =
    match having with
    | Some h -> Logical.Filter { pred = h; child = plan }
    | None -> plan
  in
  let items =
    List.map
      (fun (e, alias, bound, i) ->
        (bound, output_column env group_schema e alias bound i))
      items
  in
  if q.Sql.Ast.distinct then begin
    let projected = Logical.Project { cols = items; child = plan } in
    let plan = Logical.Distinct projected in
    let out_schema = Logical.schema projected in
    let plan =
      if q.Sql.Ast.order_by = [] then plan
      else
        let keys =
          List.map
            (fun (e, d) ->
              (bind_scalar env out_schema (resolve_order_alias q e), d))
            q.Sql.Ast.order_by
        in
        Logical.Sort { keys; child = plan }
    in
    apply_limit q plan
  end
  else begin
    let plan =
      if order_keys = [] then plan
      else Logical.Sort { keys = order_keys; child = plan }
    in
    let plan = apply_limit q plan in
    Logical.Project { cols = items; child = plan }
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Bind a full query against a catalog. *)
let query catalog (q : Sql.Ast.query) : Logical.t =
  bind_query { catalog; outer = None } q

(** Bind a standalone expression over a schema (UPDATE/DELETE predicates,
    audit-expression predicates). No subqueries. *)
let scalar catalog schema (e : Sql.Ast.expr) : Scalar.t =
  bind_scalar { catalog; outer = None } schema e
