(** Static-analysis auditing (Oracle Fine Grained Auditing style, §VI /
    Example 6.1), rebuilt on the per-column abstract domain.

    FGA never executes anything: a query is flagged as having possibly
    accessed the audit expression iff the query's selection condition on the
    sensitive table {e can logically intersect} the audit expression's
    condition (instance-independent). [analyze] abstract-interprets both
    predicates into per-column {!Abstract_domain} values — handling
    conjunction (meet), disjunction (hull-widened join), pushed negation,
    constant [LIKE 'p%'] prefixes, linear [col ± c] normalization, and
    transitive constraint propagation across top-level equi-join columns —
    and answers [No_access] only when, for every occurrence of the sensitive
    table, some column's combined constraint is unsatisfiable.

    Everything uninterpretable maps to ⊤ (unconstrained), so the analyzer
    only errs toward {!May_access} — the flag-happy direction the paper's
    §VI comparison depends on. [analyze_legacy] preserves the original,
    weaker analyzer (bails on LIKE, OR, arithmetic, join transfer) as the
    baseline the bench compares against. *)

open Storage
module AD = Abstract_domain

type verdict = May_access | No_access

let string_of_verdict = function
  | May_access -> "MAY-ACCESS"
  | No_access -> "NO-ACCESS"

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* A base-table occurrence in FROM: its binding alias and table name,
   both lowercase. Subqueries in FROM are opaque (their aliases resolve to
   nothing, leaving those columns unconstrained). *)
type source = { alias : string; table : string }

let rec sources_of_ref acc = function
  | Sql.Ast.Tr_table (name, alias) ->
    { alias = norm (Option.value alias ~default:name); table = norm name }
    :: acc
  | Sql.Ast.Tr_subquery _ -> acc
  | Sql.Ast.Tr_join (l, _, r, _) -> sources_of_ref (sources_of_ref acc l) r

let sources_of_from from = List.fold_left sources_of_ref [] from

(* ON conditions of INNER joins are conjunctive with WHERE; outer-join ON
   conditions are not (a left row survives a failing ON), so they are
   ignored — fewer constraints, sound. *)
let rec inner_on_conjuncts acc = function
  | Sql.Ast.Tr_table _ | Sql.Ast.Tr_subquery _ -> acc
  | Sql.Ast.Tr_join (l, jt, r, on) -> (
    let acc = inner_on_conjuncts (inner_on_conjuncts acc l) r in
    match (jt, on) with Sql.Ast.Inner, Some e -> e :: acc | _ -> acc)

let table_has_col catalog table name =
  match Catalog.find_opt catalog table with
  | None -> false
  | Some t ->
    Array.exists (fun c -> Schema.equal_names c.Schema.name name) (Table.schema t)

(* Resolve [qualifier.]name to an "alias.col" key, or [None] when the
   column cannot be attributed to exactly one base table. *)
let resolve catalog sources (qual, name) =
  let name = norm name in
  match qual with
  | Some q ->
    let q = norm q in
    if List.exists (fun s -> s.alias = q) sources then Some (q ^ "." ^ name)
    else None
  | None -> (
    match List.filter (fun s -> table_has_col catalog s.table name) sources with
    | [ s ] -> Some (s.alias ^ "." ^ name)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Constant folding and linear column sides                            *)
(* ------------------------------------------------------------------ *)

let rec const_of (e : Sql.Ast.expr) =
  match e with
  | Sql.Ast.E_int i -> Some (Value.Int i)
  | Sql.Ast.E_float f -> Some (Value.Float f)
  | Sql.Ast.E_string s -> Some (Value.Str s)
  | Sql.Ast.E_bool b -> Some (Value.Bool b)
  | Sql.Ast.E_date s -> (
    try Some (Value.Date (Value.date_of_string s)) with Value.Type_error _ -> None)
  | Sql.Ast.E_neg e -> (
    match const_of e with
    | Some v -> (try Some (Value.neg v) with Value.Type_error _ -> None)
    | None -> None)
  | Sql.Ast.E_binop ((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul | Sql.Ast.Div) as op, a, b)
    -> (
    match (const_of a, const_of b) with
    | Some x, Some y -> (
      let f =
        match op with
        | Sql.Ast.Add -> Value.add
        | Sql.Ast.Sub -> Value.sub
        | Sql.Ast.Mul -> Value.mul
        | _ -> Value.div
      in
      try Some (f x y) with Value.Type_error _ -> None)
    | _ -> None)
  | _ -> None

(* View an expression as a monotone function of one column:
   [col_side e = Some (key, inv)] means  e cmp k  ⟺  col cmp (inv k).
   Only [col ± int-const] shapes qualify — addition of an integer constant
   is injective and order-preserving, so every comparison operator
   transfers unchanged through [inv]. *)
let rec col_side catalog sources (e : Sql.Ast.expr) :
    (string * (Value.t -> Value.t option)) option =
  let shift op a b =
    match (col_side catalog sources a, const_of b) with
    | Some (k, inv), Some (Value.Int _ as c) ->
      Some
        ( k,
          fun v ->
            match (try Some (op v c) with Value.Type_error _ -> None) with
            | Some v' -> inv v'
            | None -> None )
    | _ -> None
  in
  match e with
  | Sql.Ast.E_column (q, c) -> (
    match resolve catalog sources (q, c) with
    | Some key -> Some (key, fun v -> Some v)
    | None -> None)
  (* e = a + c  ⇒  a cmp (k - c) *)
  | Sql.Ast.E_binop (Sql.Ast.Add, a, b) -> (
    match shift Value.sub a b with
    | Some r -> Some r
    | None -> shift Value.sub b a)
  (* e = a - c  ⇒  a cmp (k + c);  c - a is anti-monotone: skipped *)
  | Sql.Ast.E_binop (Sql.Ast.Sub, a, b) -> shift Value.add a b
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Abstract environments                                               *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

type env = AD.t Smap.t

(* Conjunction: a key absent from one side is ⊤ there, so keep it. *)
let env_meet (a : env) (b : env) : env =
  Smap.union (fun _ x y -> Some (AD.meet x y)) a b

(* Disjunction: a key absent from one side is ⊤ there, so it drops out. *)
let env_join (a : env) (b : env) : env =
  Smap.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y -> Some (AD.join x y) | _ -> None)
    a b

let negate_cmp = function
  | Sql.Ast.Eq -> Sql.Ast.Neq
  | Sql.Ast.Neq -> Sql.Ast.Eq
  | Sql.Ast.Lt -> Sql.Ast.Ge
  | Sql.Ast.Le -> Sql.Ast.Gt
  | Sql.Ast.Gt -> Sql.Ast.Le
  | Sql.Ast.Ge -> Sql.Ast.Lt
  | op -> op

let flip_cmp = function
  | Sql.Ast.Lt -> Sql.Ast.Gt
  | Sql.Ast.Le -> Sql.Ast.Ge
  | Sql.Ast.Gt -> Sql.Ast.Lt
  | Sql.Ast.Ge -> Sql.Ast.Le
  | op -> op

(* Constant LIKE patterns: no wildcard ⇒ string equality; a single trailing
   [%] ⇒ prefix interval; anything else is uninterpreted. *)
let like_domain pat =
  let has_wild s = String.exists (fun ch -> ch = '%' || ch = '_') s in
  let n = String.length pat in
  if not (has_wild pat) then AD.eq (Value.Str pat)
  else if n > 0 && pat.[n - 1] = '%' && not (has_wild (String.sub pat 0 (n - 1)))
  then AD.prefix (String.sub pat 0 (n - 1))
  else AD.Top

(* Abstract-interpret a predicate into per-column constraints. NULL
   handling rides on the total order: NULL sorts below every value, so a
   one-sided lower bound (from <, =, >) already excludes it, and [IS NULL]
   is the singleton {NULL}. *)
let eval_pred catalog sources (pred : Sql.Ast.expr) : env =
  let cmp_atom op side konst =
    match (col_side catalog sources side, const_of konst) with
    | Some (key, inv), Some c -> (
      match inv c with
      | Some c ->
        let d =
          match op with
          | Sql.Ast.Eq -> AD.eq c
          | Sql.Ast.Neq -> AD.neq c
          | Sql.Ast.Lt -> AD.lt c
          | Sql.Ast.Le -> AD.le c
          | Sql.Ast.Gt -> AD.gt c
          | Sql.Ast.Ge -> AD.ge c
          | _ -> AD.Top
        in
        if d = AD.Top then Smap.empty else Smap.singleton key d
      | None -> Smap.empty)
    | _ -> Smap.empty
  in
  let rec eval (e : Sql.Ast.expr) : env =
    match e with
    | Sql.Ast.E_binop (Sql.Ast.And, a, b) -> env_meet (eval a) (eval b)
    | Sql.Ast.E_binop (Sql.Ast.Or, a, b) -> env_join (eval a) (eval b)
    | Sql.Ast.E_not a -> eval_neg a
    | Sql.Ast.E_binop
        ((Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge)
          as op,
          a, b ) ->
      let m = cmp_atom op a b in
      if Smap.is_empty m then cmp_atom (flip_cmp op) b a else m
    | Sql.Ast.E_in_list (a, items, negated) -> (
      match col_side catalog sources a with
      | None -> Smap.empty
      | Some (key, inv) -> (
        let consts =
          List.map (fun it -> Option.bind (const_of it) inv) items
        in
        if List.exists Option.is_none consts then Smap.empty
        else
          let vs = List.filter_map Fun.id consts in
          let d = if negated then AD.range ~excl:vs () else AD.fin vs in
          if d = AD.Top then Smap.empty else Smap.singleton key d))
    | Sql.Ast.E_between (a, lo, hi) ->
      env_meet (cmp_atom Sql.Ast.Ge a lo) (cmp_atom Sql.Ast.Le a hi)
    | Sql.Ast.E_like (Sql.Ast.E_column (q, c), Sql.Ast.E_string pat, false) -> (
      match resolve catalog sources (q, c) with
      | Some key ->
        let d = like_domain pat in
        if d = AD.Top then Smap.empty else Smap.singleton key d
      | None -> Smap.empty)
    | Sql.Ast.E_is_null (Sql.Ast.E_column (q, c), negated) -> (
      match resolve catalog sources (q, c) with
      | Some key ->
        Smap.singleton key
          (if negated then AD.neq Value.Null else AD.eq Value.Null)
      | None -> Smap.empty)
    | _ -> Smap.empty
  (* ¬ pushed through the boolean structure; individual comparisons negate
     exactly under SQL 3VL because a row survives a filter only when the
     predicate is TRUE (NULL operands make both polarities non-TRUE). *)
  and eval_neg (e : Sql.Ast.expr) : env =
    match e with
    | Sql.Ast.E_not a -> eval a
    | Sql.Ast.E_binop (Sql.Ast.And, a, b) -> env_join (eval_neg a) (eval_neg b)
    | Sql.Ast.E_binop (Sql.Ast.Or, a, b) -> env_meet (eval_neg a) (eval_neg b)
    | Sql.Ast.E_binop
        ((Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge)
          as op,
          a, b ) ->
      eval (Sql.Ast.E_binop (negate_cmp op, a, b))
    | Sql.Ast.E_in_list (a, items, negated) ->
      eval (Sql.Ast.E_in_list (a, items, not negated))
    | Sql.Ast.E_is_null (a, negated) -> eval (Sql.Ast.E_is_null (a, not negated))
    | _ -> Smap.empty
  in
  eval pred

(* ------------------------------------------------------------------ *)
(* Equi-join constraint propagation (union-find over column keys)      *)
(* ------------------------------------------------------------------ *)

let rec top_conjuncts acc = function
  | Sql.Ast.E_binop (Sql.Ast.And, a, b) -> top_conjuncts (top_conjuncts acc a) b
  | e -> e :: acc

let uf_find parents k =
  let rec go k =
    match Hashtbl.find_opt parents k with
    | None | Some "" -> k
    | Some p ->
      let r = go p in
      if r <> p then Hashtbl.replace parents k r;
      r
  in
  go k

let uf_union parents a b =
  let ra = uf_find parents a and rb = uf_find parents b in
  if ra <> rb then Hashtbl.replace parents ra rb

(* Fold the env through equivalence classes: an equi-joined column inherits
   the meet of every constraint in its class (transitively). Returns a
   total lookup function. *)
let propagate parents (env : env) : string -> AD.t =
  let roots = Hashtbl.create 16 in
  Smap.iter
    (fun k d ->
      let r = uf_find parents k in
      let cur = Option.value (Hashtbl.find_opt roots r) ~default:AD.Top in
      Hashtbl.replace roots r (AD.meet cur d))
    env;
  fun k ->
    match Hashtbl.find_opt roots (uf_find parents k) with
    | Some d -> d
    | None -> AD.Top

(* ------------------------------------------------------------------ *)
(* Query traversal                                                     *)
(* ------------------------------------------------------------------ *)

let rec expr_subqueries acc (e : Sql.Ast.expr) =
  match e with
  | Sql.Ast.E_in_query (x, q, _) -> expr_subqueries (q :: acc) x
  | Sql.Ast.E_exists (q, _) -> q :: acc
  | Sql.Ast.E_subquery q -> q :: acc
  | Sql.Ast.E_binop (_, a, b) | Sql.Ast.E_like (a, b, _) ->
    expr_subqueries (expr_subqueries acc a) b
  | Sql.Ast.E_between (a, b, c) ->
    expr_subqueries (expr_subqueries (expr_subqueries acc a) b) c
  | Sql.Ast.E_neg a | Sql.Ast.E_not a | Sql.Ast.E_is_null (a, _) ->
    expr_subqueries acc a
  | Sql.Ast.E_in_list (a, items, _) ->
    List.fold_left expr_subqueries (expr_subqueries acc a) items
  | Sql.Ast.E_case (arms, els) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> expr_subqueries (expr_subqueries acc c) v)
        acc arms
    in
    (match els with Some e -> expr_subqueries acc e | None -> acc)
  | Sql.Ast.E_func (_, args) -> List.fold_left expr_subqueries acc args
  | Sql.Ast.E_agg { arg = Some a; _ } -> expr_subqueries acc a
  | _ -> acc

let query_subqueries (q : Sql.Ast.query) : Sql.Ast.query list =
  let acc = ref [] in
  let add_expr e = acc := expr_subqueries !acc e in
  List.iter
    (function Sql.Ast.Si_expr (e, _) -> add_expr e | _ -> ())
    q.Sql.Ast.select;
  let rec from_refs = function
    | Sql.Ast.Tr_table _ -> ()
    | Sql.Ast.Tr_subquery (sq, _) -> acc := sq :: !acc
    | Sql.Ast.Tr_join (l, _, r, on) ->
      from_refs l;
      from_refs r;
      Option.iter add_expr on
  in
  List.iter from_refs q.Sql.Ast.from;
  Option.iter add_expr q.Sql.Ast.where;
  Option.iter add_expr q.Sql.Ast.having;
  List.iter add_expr q.Sql.Ast.group_by;
  List.iter (fun (e, _) -> add_expr e) q.Sql.Ast.order_by;
  !acc

(* Does [q] read [table] anywhere, however deeply nested? *)
let rec references_table ~table (q : Sql.Ast.query) : bool =
  List.exists (fun s -> s.table = table) (sources_of_from q.Sql.Ast.from)
  || List.exists (references_table ~table) (query_subqueries q)
  || List.exists (fun (_, c) -> references_table ~table c) q.Sql.Ast.set_ops

(* ------------------------------------------------------------------ *)
(* The analyzer                                                        *)
(* ------------------------------------------------------------------ *)

(* Abstract the top-level selection condition of [q]: env from WHERE plus
   inner-join ON conditions, propagated across equi-join classes. *)
let selection_lookup catalog sources (q : Sql.Ast.query) : string -> AD.t =
  let conjuncts =
    let ons = List.fold_left inner_on_conjuncts [] q.Sql.Ast.from in
    match q.Sql.Ast.where with
    | Some w -> top_conjuncts ons w
    | None -> ons
  in
  let env =
    List.fold_left
      (fun acc c -> env_meet acc (eval_pred catalog sources c))
      Smap.empty conjuncts
  in
  let parents = Hashtbl.create 16 in
  List.iter
    (function
      | Sql.Ast.E_binop (Sql.Ast.Eq, Sql.Ast.E_column (qa, ca), Sql.Ast.E_column (qb, cb))
        -> (
        match
          (resolve catalog sources (qa, ca), resolve catalog sources (qb, cb))
        with
        | Some a, Some b -> uf_union parents a b
        | _ -> ())
      | _ -> ())
    conjuncts;
  propagate parents env

(* One SELECT component (set operations are analyzed component-wise). *)
let analyze_component catalog ~sensitive_table ~(definition : Sql.Ast.query)
    (q : Sql.Ast.query) : verdict =
  let table = norm sensitive_table in
  let sources = sources_of_from q.Sql.Ast.from in
  let sens_aliases = List.filter (fun s -> s.table = table) sources in
  if List.exists (references_table ~table) (query_subqueries q) then
    (* The sensitive table is read inside a subquery we do not scope. *)
    May_access
  else if sens_aliases = [] then No_access
  else
    let lookup_q = selection_lookup catalog sources q in
    let def_sources = sources_of_from definition.Sql.Ast.from in
    let def_alias =
      match List.filter (fun s -> s.table = table) def_sources with
      | s :: _ -> Some s.alias
      | [] -> None
    in
    let lookup_d = selection_lookup catalog def_sources definition in
    let cols =
      match Catalog.find_opt catalog sensitive_table with
      | None -> []
      | Some t ->
        Array.to_list (Table.schema t) |> List.map (fun c -> norm c.Schema.name)
    in
    let alias_ruled_out (s : source) =
      List.exists
        (fun c ->
          let dq = lookup_q (s.alias ^ "." ^ c) in
          let dd =
            match def_alias with
            | Some a -> lookup_d (a ^ "." ^ c)
            | None -> AD.Top
          in
          AD.is_bot (AD.meet dq dd))
        cols
    in
    if List.for_all alias_ruled_out sens_aliases then No_access else May_access

(* The audit expression's own per-column constraints over the sensitive
   table's base schema — the "audit side" of every elision intersection.
   All-Top (empty) when the definition cannot be scoped to a single
   top-level occurrence of the table. *)
let audit_env catalog ~sensitive_table ~(definition : Sql.Ast.query) :
    (string * AD.t) list =
  let table = norm sensitive_table in
  if definition.Sql.Ast.set_ops <> [] then []
  else
    let def_sources = sources_of_from definition.Sql.Ast.from in
    match List.filter (fun s -> s.table = table) def_sources with
    | [] -> []
    | s :: _ -> (
      let lookup = selection_lookup catalog def_sources definition in
      match Catalog.find_opt catalog sensitive_table with
      | None -> []
      | Some t ->
        Array.to_list (Table.schema t)
        |> List.map (fun c ->
               let n = norm c.Schema.name in
               (n, lookup (s.alias ^ "." ^ n))))

let audit_env_tables (definition : Sql.Ast.query) =
  List.map (fun s -> s.table) (sources_of_from definition.Sql.Ast.from)

let analyze catalog ~sensitive_table ~(definition : Sql.Ast.query)
    (q : Sql.Ast.query) : verdict =
  let components =
    { q with Sql.Ast.set_ops = [] } :: List.map snd q.Sql.Ast.set_ops
  in
  if
    List.for_all
      (fun c ->
        analyze_component catalog ~sensitive_table ~definition c = No_access)
      components
  then No_access
  else May_access

(* ------------------------------------------------------------------ *)
(* Legacy analyzer (the pre-abstract-domain baseline, verbatim          *)
(* semantics): per-column mutable summaries over top-level WHERE atoms, *)
(* opaque on LIKE / OR / arithmetic / join transfer.                    *)
(* ------------------------------------------------------------------ *)

type summary = {
  mutable exact : Value.t list option;
  mutable lo : (Value.t * bool) option;
  mutable hi : (Value.t * bool) option;
  mutable excluded : Value.t list;
  mutable opaque : bool;
}

let fresh () =
  { exact = None; lo = None; hi = None; excluded = []; opaque = false }

let rec as_atom (e : Sql.Ast.expr) =
  match e with
  | Sql.Ast.E_binop (op, Sql.Ast.E_column (_, c), rhs) -> (
    match legacy_const rhs with
    | Some v -> Some (norm c, `Cmp (op, v))
    | None -> None)
  | Sql.Ast.E_binop (op, lhs, Sql.Ast.E_column (_, c)) -> (
    match legacy_const lhs with
    | Some v -> Some (norm c, `Cmp (flip_cmp op, v))
    | None -> None)
  | Sql.Ast.E_in_list (Sql.Ast.E_column (_, c), items, false) ->
    let consts = List.map legacy_const items in
    if List.for_all Option.is_some consts then
      Some (norm c, `In (List.map Option.get consts))
    else None
  | Sql.Ast.E_between (Sql.Ast.E_column (_, c), lo, hi) -> (
    match (legacy_const lo, legacy_const hi) with
    | Some l, Some h -> Some (norm c, `Range (l, h))
    | _ -> None)
  | _ -> None

and legacy_const = function
  | Sql.Ast.E_int i -> Some (Value.Int i)
  | Sql.Ast.E_float f -> Some (Value.Float f)
  | Sql.Ast.E_string s -> Some (Value.Str s)
  | Sql.Ast.E_bool b -> Some (Value.Bool b)
  | Sql.Ast.E_date s -> Some (Value.Date (Value.date_of_string s))
  | Sql.Ast.E_neg e -> Option.map Value.neg (legacy_const e)
  | _ -> None

let sensitive_columns catalog table =
  match Catalog.find_opt catalog table with
  | None -> []
  | Some t ->
    Array.to_list (Table.schema t) |> List.map (fun c -> norm c.Schema.name)

let rec apply_atom tbl (col, atom) =
  let s =
    match Hashtbl.find_opt tbl col with
    | Some s -> s
    | None ->
      let s = fresh () in
      Hashtbl.replace tbl col s;
      s
  in
  let restrict_exact vs =
    match s.exact with
    | None -> s.exact <- Some vs
    | Some prev ->
      s.exact <- Some (List.filter (fun v -> List.exists (Value.equal v) vs) prev)
  in
  match atom with
  | `Cmp (Sql.Ast.Eq, v) -> restrict_exact [ v ]
  | `Cmp (Sql.Ast.Neq, v) -> s.excluded <- v :: s.excluded
  | `Cmp (Sql.Ast.Lt, v) -> (
    match s.hi with
    | Some (h, _) when Value.compare_total h v <= 0 -> ()
    | _ -> s.hi <- Some (v, false))
  | `Cmp (Sql.Ast.Le, v) -> (
    match s.hi with
    | Some (h, _) when Value.compare_total h v <= 0 -> ()
    | _ -> s.hi <- Some (v, true))
  | `Cmp (Sql.Ast.Gt, v) -> (
    match s.lo with
    | Some (l, _) when Value.compare_total l v >= 0 -> ()
    | _ -> s.lo <- Some (v, false))
  | `Cmp (Sql.Ast.Ge, v) -> (
    match s.lo with
    | Some (l, _) when Value.compare_total l v >= 0 -> ()
    | _ -> s.lo <- Some (v, true))
  | `Cmp (_, _) -> s.opaque <- true
  | `In vs -> restrict_exact vs
  | `Range (l, h) ->
    apply_atom tbl (col, `Cmp (Sql.Ast.Ge, l));
    apply_atom tbl (col, `Cmp (Sql.Ast.Le, h))

let summarize catalog ~sensitive_table (where : Sql.Ast.expr option) :
    (string, summary) Hashtbl.t =
  let cols = sensitive_columns catalog sensitive_table in
  let tbl = Hashtbl.create 8 in
  (match where with
  | None -> ()
  | Some w ->
    List.iter
      (fun c ->
        match as_atom c with
        | Some (col, atom) when List.mem col cols -> apply_atom tbl (col, atom)
        | _ -> ())
      (top_conjuncts [] w));
  tbl

let in_range s v =
  (match s.lo with
  | Some (l, incl) ->
    let c = Value.compare_total v l in
    if incl then c >= 0 else c > 0
  | None -> true)
  && (match s.hi with
     | Some (h, incl) ->
       let c = Value.compare_total v h in
       if incl then c <= 0 else c < 0
     | None -> true)
  && not (List.exists (Value.equal v) s.excluded)

let summary_satisfiable (s : summary) =
  if s.opaque then true
  else
    match s.exact with
    | Some vs -> List.exists (in_range s) vs
    | None -> (
      match (s.lo, s.hi) with
      | Some (l, li), Some (h, hi_) ->
        let c = Value.compare_total l h in
        c < 0 || (c = 0 && li && hi_)
      | _ -> true)

let merge_summaries a b =
  let tbl = Hashtbl.create 8 in
  let add src =
    Hashtbl.iter
      (fun col (s : summary) ->
        (match s.exact with
        | Some vs -> apply_atom tbl (col, `In vs)
        | None -> ());
        (match s.lo with
        | Some (v, true) -> apply_atom tbl (col, `Cmp (Sql.Ast.Ge, v))
        | Some (v, false) -> apply_atom tbl (col, `Cmp (Sql.Ast.Gt, v))
        | None -> ());
        (match s.hi with
        | Some (v, true) -> apply_atom tbl (col, `Cmp (Sql.Ast.Le, v))
        | Some (v, false) -> apply_atom tbl (col, `Cmp (Sql.Ast.Lt, v))
        | None -> ());
        List.iter
          (fun v -> apply_atom tbl (col, `Cmp (Sql.Ast.Neq, v)))
          s.excluded;
        if s.opaque then
          match Hashtbl.find_opt tbl col with
          | Some m -> m.opaque <- true
          | None ->
            let m = fresh () in
            m.opaque <- true;
            Hashtbl.replace tbl col m)
      src
  in
  add a;
  add b;
  tbl

let analyze_legacy catalog ~sensitive_table ~(definition : Sql.Ast.query)
    (q : Sql.Ast.query) : verdict =
  let query_summary = summarize catalog ~sensitive_table q.Sql.Ast.where in
  let audit_summary =
    summarize catalog ~sensitive_table definition.Sql.Ast.where
  in
  let combined = merge_summaries query_summary audit_summary in
  let ok =
    Hashtbl.fold (fun _ s acc -> acc && summary_satisfiable s) combined true
  in
  if ok then May_access else No_access
