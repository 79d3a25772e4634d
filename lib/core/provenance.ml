(** Why-provenance as a plan rewrite (provenance-as-extra-column, as in
    ProvSQL; join-back rewrites for aggregation and top-k, as in Perm and
    GProM).

    The paper's offline auditor decides, per Definition 2.3, whether each
    sensitive tuple influences the query result. Re-executing the query
    once per tuple ([Db.Database.exact_accessed]) is exact but quadratic;
    computing provenance is one pass, at the annotation cost the paper
    cites ("up to 5x") as the reason SELECT triggers use a no-op audit
    operator instead.
    Here provenance is an ordinary plan that the engine runs: [rewrite p]
    produces every column of [p] followed by one ID column per sensitive
    scan, holding the partition key of the scanned row that contributed
    to the output row (or NULL). The accessed set is the set of non-NULL
    IDs in the view.

    Per operator, with [p'] the rewrite of a child:
    - a sensitive scan appends its partition key (widening a pruned
      scan); Filter, Project, Sort and joins pass the ID columns through,
      a LEFT join NULL-padding the right side's;
    - a semi-join or EXISTS apply whose inner carries IDs becomes a join
      (an outer apply and a marker filter): every witness is in the
      lineage. Anti-joins and NOT EXISTS keep only the outer side's IDs;
    - Distinct and UNION deduplication are dropped; INTERSECT is a
      null-safe join on all columns and EXCEPT a null-safe anti-join;
    - Group_by and Limit join the original result back to [p']: Group_by
      as a LEFT join on its keys (so the one row of an empty scalar
      aggregate survives with NULL IDs), Limit as an inner join on all
      columns. Keys are compared as the never-NULL pair
      [(k IS NULL, coalesce(k, 0))], which matches NULL groups and keeps
      the join hashable.

    Agreement with the exact auditor (asserted by the test suite):
    - equal on select–join, projection, aggregation and top-k queries built
      from COUNT/SUM aggregates (the evaluation workload);
    - over-approximates when duplicate elimination hides influence (the
      §II-B caveat), for MIN/MAX groups where a non-extremal member is
      deleted, and for a top-k window row equal, on every output column,
      to a row outside the window with a different ID;
    - under-approximates for negated subqueries whose witnesses block
      output rows (no TPC-H evaluation query is of this form). The online
      heuristics still audit those witnesses, so the pipeline's one-sided
      guarantee holds where the paper claims it. *)

open Storage
open Plan

let col_refs schema positions =
  List.map (fun i -> (Scalar.Col i, Schema.col schema i)) positions

let range lo n = List.init n (fun i -> lo + i)

(* [child] narrowed to the given positions, in order. *)
let select child positions =
  Logical.Project
    { cols = col_refs (Logical.schema child) positions; child }

(* Positions that reorder [l @ l IDs @ r @ r IDs], the concatenation of
   two rewritten inputs, into [l @ r @ l IDs @ r IDs]. *)
let regroup ~l ~kl ~r ~kr =
  range 0 l @ range (l + kl) r @ range l kl @ range (l + kl + r) kr

(* [a] and [b] are equal or both NULL, as two never-NULL equi-conjuncts. *)
let null_safe_eq a b =
  let eq x y = Scalar.Binop (Sql.Ast.Eq, x, y) in
  let is_null e = Scalar.Is_null (e, false) in
  let enc e =
    Scalar.Func (Scalar.F_coalesce, [ e; Scalar.Const (Value.Int 0) ])
  in
  [ eq (is_null a) (is_null b); eq (enc a) (enc b) ]

(* Null-safe equality of the [n] columns at [l] and at [r]. *)
let match_cols n ~l ~r =
  match
    List.concat_map
      (fun i -> null_safe_eq (Scalar.Col (l + i)) (Scalar.Col (r + i)))
      (range 0 n)
  with
  | [] -> None
  | cs -> Some (Scalar.conjoin cs)

(* A never-NULL column that tells a joined row from a NULL-padded one. *)
let flag =
  (Scalar.Const (Value.Bool true), Schema.column "$matched" Datatype.T_bool)

(* [go p] is [(p', k)]: [p'] yields [p]'s columns followed by [k] ID
   columns, and [p' == p] when [k = 0]. *)
let rec go (audit : Audit_expr.t) (plan : Logical.t) : Logical.t * int =
  let go = go audit in
  let arity = Logical.arity in
  (* A one-child node whose rewrite [f c k] is built from its child's. *)
  let unary child f =
    match go child with _, 0 -> (plan, 0) | c, k -> (f c k, k)
  in
  (* The [k] ID columns of [c], the rewrite of [child]. *)
  let ids c child k = col_refs (Logical.schema c) (range (arity child) k) in
  match plan with
  | Logical.Scan ({ table; schema; cols; _ } as s)
    when Schema.equal_names table audit.Audit_expr.sensitive_table -> (
    match Schema.find_all schema audit.Audit_expr.partition_by with
    | key :: _ ->
      let visible =
        match cols with
        | Some idxs -> Array.to_list idxs
        | None -> range 0 (Schema.arity schema)
      in
      let cols = Some (Array.of_list (visible @ [ key ])) in
      (Logical.Scan { s with cols }, 1)
    | [] ->
      invalid_arg
        (Printf.sprintf "Provenance.rewrite: %s has no column %s" table
           audit.Audit_expr.partition_by))
  | Logical.Scan _ -> (plan, 0)
  | Logical.Audit { child; _ } -> go child
  | Logical.Filter f ->
    unary f.child (fun c _ -> Logical.Filter { f with child = c })
  | Logical.Sort s ->
    unary s.child (fun c _ -> Logical.Sort { s with child = c })
  | Logical.Distinct child -> unary child (fun c _ -> c)
  | Logical.Project { cols; child } ->
    unary child (fun c k ->
        Logical.Project { cols = cols @ ids c child k; child = c })
  | Logical.Join { kind; pred; left; right } -> (
    match (go left, go right) with
    | (_, 0), (_, 0) -> (plan, 0)
    | (l, kl), (r, kr) ->
      let la = arity left and ra = arity right in
      let pred =
        Option.map
          (Scalar.shift_cols (fun i -> if i < la then i else i + kl))
          pred
      in
      ( select
          (Logical.Join { kind; pred; left = l; right = r })
          (regroup ~l:la ~kl ~r:ra ~kr),
        kl + kr ))
  | Logical.Semi_join s -> (
    let l, kl = go s.left in
    match if s.anti then (s.right, 0) else go s.right with
    | _, 0 when kl = 0 -> (plan, 0)
    | _, 0 -> (Logical.Semi_join { s with left = l }, kl)
    | r, kr ->
      let la = arity s.left in
      let right_key = Scalar.shift_cols (fun i -> i + la + kl) s.right_key in
      ( select
          (Logical.Join
             {
               kind = Logical.J_inner;
               pred = Some (Scalar.Binop (Sql.Ast.Eq, s.left_key, right_key));
               left = l;
               right = r;
             })
          (range 0 (la + kl) @ range (la + kl + arity s.right) kr),
        kl + kr ))
  | Logical.Apply { kind; outer; inner } -> (
    let o, ko = go outer in
    let oa = arity outer in
    match (kind, if kind = Logical.A_anti then (inner, 0) else go inner) with
    | _, (_, 0) when ko = 0 -> (plan, 0)
    | Logical.A_anti, _ | Logical.A_semi, (_, 0) ->
      (Logical.Apply { kind; outer = o; inner }, ko)
    | Logical.A_semi, (i, ki) ->
      (* Every witness row, flagged so that outer rows without one (padded
         with a NULL flag) can be dropped. *)
      let witnesses =
        Logical.Project { cols = flag :: ids i inner ki; child = i }
      in
      let applied =
        Logical.Filter
          {
            pred = Scalar.Is_null (Scalar.Col (oa + ko), true);
            child =
              Logical.Apply
                { kind = Logical.A_outer; outer = o; inner = witnesses };
          }
      in
      (select applied (range 0 (oa + ko) @ range (oa + ko + 1) ki), ko + ki)
    | Logical.A_outer, (i, ki) ->
      ( select
          (Logical.Apply { kind = Logical.A_outer; outer = o; inner = i })
          (regroup ~l:oa ~kl:ko ~r:(arity inner) ~kr:ki),
        ko + ki ))
  | Logical.Group_by { keys; child; _ } ->
    unary child (fun c k ->
        let g = arity plan and nk = List.length keys in
        let members =
          Logical.Project { cols = keys @ ids c child k; child = c }
        in
        select
          (Logical.Join
             {
               kind = Logical.J_left;
               pred = match_cols nk ~l:0 ~r:g;
               left = plan;
               right = members;
             })
          (range 0 g @ range (g + nk) k))
  | Logical.Limit { child; _ } ->
    unary child (fun c k ->
        let a = arity plan in
        select
          (Logical.Join
             {
               kind = Logical.J_inner;
               pred = match_cols a ~l:0 ~r:a;
               left = plan;
               right = c;
             })
          (range 0 a @ range (2 * a) k))
  | Logical.Set_op { op; left; right } -> (
    match (go left, if op = Sql.Ast.Except then (right, 0) else go right) with
    | (_, 0), (_, 0) -> (plan, 0)
    | (l, kl), (r, kr) -> (
      let a = arity left in
      match op with
      | Sql.Ast.Union | Sql.Ast.Union_all ->
        (* Both branches as [columns @ left IDs @ right IDs]. *)
        let refs c = col_refs (Logical.schema c) in
        let nulls c n =
          List.map
            (fun (_, col) -> (Scalar.Const Value.Null, col))
            (refs c (range a n))
        in
        let widen c cols = Logical.Project { cols; child = c } in
        ( Logical.Set_op
            {
              op = Sql.Ast.Union_all;
              left = widen l (refs l (range 0 (a + kl)) @ nulls r kr);
              right =
                widen r (refs r (range 0 a) @ nulls l kl @ refs r (range a kr));
            },
          kl + kr )
      | Sql.Ast.Intersect ->
        ( select
            (Logical.Join
               {
                 kind = Logical.J_inner;
                 pred = match_cols a ~l:0 ~r:(a + kl);
                 left = l;
                 right = r;
               })
            (range 0 (a + kl) @ range (a + kl + a) kr),
          kl + kr )
      | Sql.Ast.Except ->
        (* Left rows with no null-safe equal right row. *)
        let flagged =
          Logical.Project
            {
              cols = col_refs (Logical.schema right) (range 0 a) @ [ flag ];
              child = right;
            }
        in
        ( select
            (Logical.Filter
               {
                 pred = Scalar.Is_null (Scalar.Col (a + kl + a), false);
                 child =
                   Logical.Join
                     {
                       kind = Logical.J_left;
                       pred = match_cols a ~l:0 ~r:(a + kl);
                       left = l;
                       right = flagged;
                     };
               })
            (range 0 (a + kl)),
          kl )))

let rewrite ~audit plan = fst (go audit (Logical.strip_audits plan))
