(** Logical optimizer.

    [logical_optimize] = constant folding + predicate pushdown + join
    predicate extraction. Pushdown places every single-table predicate
    directly above its scan — the property the paper's leaf-node heuristic
    depends on (§III-C: "database optimizers push single table filters into
    the leaf node").

    [prune] is column pruning with exact index remapping. It runs *after*
    audit-operator placement and treats an [Audit] node's ID column as
    required — this is precisely the paper's "forced propagation of IDs"
    (§IV-A2): instrumentation keeps partition-key columns alive in plan
    regions where the plain query would have dropped them, at a small CPU
    cost that the ablation benchmark measures. *)

open Storage

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

(* No closed subtree reads the environment: [Col], [Param] and [Slot]
   never fold, nor do the session functions, whose values belong to the
   execution (a cached plan must not freeze them). *)
let closed = { Scalar_eval.params = []; now = 0; user = ""; sql = "" }

let rec fold_scalar (e : Scalar.t) : Scalar.t =
  match Scalar.map_children fold_scalar e with
  | Scalar.Binop (Sql.Ast.And, Scalar.Const (Value.Bool true), x)
  | Scalar.Binop (Sql.Ast.And, x, Scalar.Const (Value.Bool true))
  | Scalar.Binop (Sql.Ast.Or, Scalar.Const (Value.Bool false), x)
  | Scalar.Binop (Sql.Ast.Or, x, Scalar.Const (Value.Bool false)) ->
    x
  | Scalar.Binop (Sql.Ast.And, Scalar.Const (Value.Bool false), _)
  | Scalar.Binop (Sql.Ast.And, _, Scalar.Const (Value.Bool false)) ->
    Scalar.Const (Value.Bool false)
  | Scalar.Binop (Sql.Ast.Or, Scalar.Const (Value.Bool true), _)
  | Scalar.Binop (Sql.Ast.Or, _, Scalar.Const (Value.Bool true)) ->
    Scalar.Const (Value.Bool true)
  | ( Scalar.Col _ | Scalar.Const _ | Scalar.Param _ | Scalar.Slot _
    | Scalar.Func ((Scalar.F_now | Scalar.F_user_id | Scalar.F_sql_text), _) )
    as e ->
    e
  | e when List.for_all (function Scalar.Const _ -> true | _ -> false)
             (Scalar.children e) -> (
    (* An error stays in the plan, to be raised at run time. *)
    try Scalar.Const (Scalar_eval.eval closed [||] e) with _ -> e)
  | e -> e

let fold_constants p = Logical.map_scalars fold_scalar p

(* ------------------------------------------------------------------ *)
(* Correlation-scoped parameter utilities                              *)
(*                                                                     *)
(* Params in a plan refer to the nearest *enclosing* Apply's outer     *)
(* row; a nested Apply's inner therefore has its own param scope and   *)
(* must not be touched when remapping the enclosing scope.             *)
(* ------------------------------------------------------------------ *)

let rec scoped_map_scalars f (p : Logical.t) : Logical.t =
  let m = scoped_map_scalars f in
  match p with
  | Logical.Scan _ -> p
  | Logical.Filter { pred; child } ->
    Logical.Filter { pred = f pred; child = m child }
  | Logical.Project { cols; child } ->
    Logical.Project
      { cols = List.map (fun (s, c) -> (f s, c)) cols; child = m child }
  | Logical.Join j ->
    Logical.Join
      { j with pred = Option.map f j.pred; left = m j.left; right = m j.right }
  | Logical.Semi_join s ->
    Logical.Semi_join
      {
        s with
        left_key = f s.left_key;
        right_key = f s.right_key;
        left = m s.left;
        right = m s.right;
      }
  | Logical.Apply a ->
    (* A nested Apply's inner opens a fresh param scope: skip it. *)
    Logical.Apply { a with outer = m a.outer }
  | Logical.Group_by g ->
    Logical.Group_by
      {
        keys = List.map (fun (s, c) -> (f s, c)) g.keys;
        aggs =
          List.map
            (fun (a : Logical.agg) ->
              { a with Logical.arg = Option.map f a.Logical.arg })
            g.aggs;
        child = m g.child;
      }
  | Logical.Sort s ->
    Logical.Sort
      { keys = List.map (fun (k, d) -> (f k, d)) s.keys; child = m s.child }
  | Logical.Limit l -> Logical.Limit { l with child = m l.child }
  | Logical.Distinct c -> Logical.Distinct (m c)
  | Logical.Audit a -> Logical.Audit { a with child = m a.child }
  | Logical.Set_op so ->
    Logical.Set_op { so with left = m so.left; right = m so.right }

let rec scoped_fold_scalars :
    'a. (('a -> Scalar.t -> 'a) -> 'a -> Logical.t -> 'a) =
 fun f acc p ->
  let fd = scoped_fold_scalars f in
  match p with
  | Logical.Scan _ -> acc
  | Logical.Filter { pred; child } -> fd (f acc pred) child
  | Logical.Project { cols; child } ->
    fd (List.fold_left (fun acc (s, _) -> f acc s) acc cols) child
  | Logical.Join j ->
    let acc = match j.pred with Some s -> f acc s | None -> acc in
    fd (fd acc j.left) j.right
  | Logical.Semi_join s ->
    let acc = f (f acc s.left_key) s.right_key in
    fd (fd acc s.left) s.right
  | Logical.Apply a -> fd acc a.outer
  | Logical.Group_by g ->
    let acc = List.fold_left (fun acc (s, _) -> f acc s) acc g.keys in
    let acc =
      List.fold_left
        (fun acc (a : Logical.agg) ->
          match a.Logical.arg with Some s -> f acc s | None -> acc)
        acc g.aggs
    in
    fd acc g.child
  | Logical.Sort s ->
    fd (List.fold_left (fun acc (k, _) -> f acc k) acc s.keys) s.child
  | Logical.Limit l -> fd acc l.child
  | Logical.Distinct c -> fd acc c
  | Logical.Audit a -> fd acc a.child
  | Logical.Set_op so -> fd (fd acc so.left) so.right

(** Outer columns referenced (via [Param]) by the scalars of [inner]'s
    top-level correlation scope. *)
let plan_free_params (inner : Logical.t) : int list =
  scoped_fold_scalars
    (fun acc s -> Scalar.free_params s @ acc)
    [] inner
  |> List.sort_uniq Int.compare

let plan_map_params (remap : int -> int) (inner : Logical.t) : Logical.t =
  scoped_map_scalars
    (Scalar.map_params (fun i -> Scalar.Param (remap i)))
    inner

(* ------------------------------------------------------------------ *)
(* Predicate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

let wrap_filter plan = function
  | [] -> plan
  | conjs -> Logical.Filter { pred = Scalar.conjoin conjs; child = plan }

let max_free e = List.fold_left max (-1) (Scalar.free_cols e)
let min_free e = List.fold_left min max_int (Scalar.free_cols e)

(** Push [pending] (predicates over [plan]'s output schema) as deep as they
    go, rebuilding the tree. *)
let rec push (plan : Logical.t) (pending : Scalar.t list) : Logical.t =
  match plan with
  | Logical.Filter { pred; child } ->
    push child (Scalar.conjuncts pred @ pending)
  | Logical.Scan _ -> wrap_filter plan pending
  | Logical.Project { cols; child } ->
    let defs = Array.of_list (List.map fst cols) in
    let lowered =
      List.map (Scalar.subst_cols (fun i -> defs.(i))) pending
    in
    Logical.Project { cols; child = push child lowered }
  | Logical.Join { kind = Logical.J_inner; pred; left; right } ->
    let la = Logical.arity left in
    let all =
      pending @ match pred with Some p -> Scalar.conjuncts p | None -> []
    in
    let lefts, rest = List.partition (fun c -> max_free c < la) all in
    let rights, spans =
      List.partition (fun c -> min_free c >= la && min_free c < max_int) rest
    in
    (* A predicate with no column references (e.g. a folded constant or a
       param-only predicate) goes left arbitrarily — it is row-independent. *)
    let lefts, spans =
      let constish, spans' =
        List.partition (fun c -> Scalar.free_cols c = []) spans
      in
      (lefts @ constish, spans')
    in
    let rights =
      List.map (Scalar.shift_cols (fun i -> i - la)) rights
    in
    let pred' = if spans = [] then None else Some (Scalar.conjoin spans) in
    Logical.Join
      {
        kind = Logical.J_inner;
        pred = pred';
        left = push left lefts;
        right = push right rights;
      }
  | Logical.Join { kind = Logical.J_left; pred; left; right } ->
    (* WHERE predicates on the outer side commute; everything else stays
       above. The ON predicate must not be merged with WHERE predicates. *)
    let la = Logical.arity left in
    let lefts, keep = List.partition (fun c -> max_free c < la) pending in
    let plan' =
      Logical.Join
        {
          kind = Logical.J_left;
          pred;
          left = push left lefts;
          right = push right [];
        }
    in
    wrap_filter plan' keep
  | Logical.Semi_join s ->
    Logical.Semi_join
      { s with left = push s.left pending; right = push s.right [] }
  | Logical.Apply a ->
    let oa = Logical.arity a.outer in
    let outers, keep = List.partition (fun c -> max_free c < oa) pending in
    let plan' =
      Logical.Apply
        { a with outer = push a.outer outers; inner = push a.inner [] }
    in
    wrap_filter plan' keep
  | Logical.Group_by g ->
    let nkeys = List.length g.keys in
    let keyed, keep = List.partition (fun c -> max_free c < nkeys) pending in
    let keydefs = Array.of_list (List.map fst g.keys) in
    let lowered =
      List.map (Scalar.subst_cols (fun i -> keydefs.(i))) keyed
    in
    let plan' = Logical.Group_by { g with child = push g.child lowered } in
    wrap_filter plan' keep
  | Logical.Sort s -> Logical.Sort { s with child = push s.child pending }
  | Logical.Distinct c -> Logical.Distinct (push c pending)
  | Logical.Limit l ->
    let plan' = Logical.Limit { l with child = push l.child [] } in
    wrap_filter plan' pending
  | Logical.Audit a ->
    Logical.Audit { a with child = push a.child pending }
  | Logical.Set_op so ->
    (* sigma distributes over UNION/EXCEPT/INTERSECT on both sides. *)
    Logical.Set_op
      { so with left = push so.left pending; right = push so.right pending }

let push_down plan = push plan []

(** Fold → pushdown → (optionally, with table statistics) join reorder →
    fold. *)
let logical_optimize ?catalog plan =
  let plan = plan |> fold_constants |> push_down in
  let plan =
    match catalog with
    | Some c -> Join_reorder.reorder c plan
    | None -> plan
  in
  fold_constants plan

(* ------------------------------------------------------------------ *)
(* Column pruning                                                      *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

let iset_of_scalar s = Iset.of_list (Scalar.free_cols s)

(* [go plan required] returns [(plan', map)] where [plan'] produces a
   superset of [required] and [map.(old_index)] gives the new index of every
   produced column (or -1 if dropped). *)
let rec go (plan : Logical.t) (required : Iset.t) : Logical.t * int array =
  let ar = Logical.arity plan in
  let all = Iset.of_list (List.init ar Fun.id) in
  let required = Iset.inter required all in
  match plan with
  | Logical.Scan ({ cols = None; _ } as s) ->
    let keep = Iset.elements required in
    if List.length keep = ar then (plan, Array.init ar Fun.id)
    else begin
      let map = Array.make ar (-1) in
      List.iteri (fun ni oi -> map.(oi) <- ni) keep;
      (Logical.Scan { s with cols = Some (Array.of_list keep) }, map)
    end
  | Logical.Scan { cols = Some _; _ } -> (plan, Array.init ar Fun.id)
  | Logical.Filter { pred; child } ->
    let need = Iset.union required (iset_of_scalar pred) in
    let child', m = go child need in
    let remap = Scalar.shift_cols (fun i -> m.(i)) in
    (Logical.Filter { pred = remap pred; child = child' }, m)
  | Logical.Project { cols; child } ->
    let cols_arr = Array.of_list cols in
    let need =
      Iset.fold
        (fun i acc -> Iset.union acc (iset_of_scalar (fst cols_arr.(i))))
        required Iset.empty
    in
    let child', m = go child need in
    let remap = Scalar.shift_cols (fun i -> m.(i)) in
    let keep = Iset.elements required in
    let cols' = List.map (fun i -> let s, c = cols_arr.(i) in (remap s, c)) keep in
    let map = Array.make ar (-1) in
    List.iteri (fun ni oi -> map.(oi) <- ni) keep;
    (Logical.Project { cols = cols'; child = child' }, map)
  | Logical.Join { kind; pred; left; right } ->
    let la = Logical.arity left in
    let need =
      Iset.union required
        (match pred with Some p -> iset_of_scalar p | None -> Iset.empty)
    in
    let lneed = Iset.filter (fun i -> i < la) need in
    let rneed =
      Iset.filter_map (fun i -> if i >= la then Some (i - la) else None) need
    in
    let left', ml = go left lneed in
    let right', mr = go right rneed in
    let la' = Logical.arity left' in
    let map = Array.make ar (-1) in
    for i = 0 to ar - 1 do
      if i < la then (if ml.(i) >= 0 then map.(i) <- ml.(i))
      else if mr.(i - la) >= 0 then map.(i) <- la' + mr.(i - la)
    done;
    let pred' = Option.map (Scalar.shift_cols (fun i -> map.(i))) pred in
    (Logical.Join { kind; pred = pred'; left = left'; right = right' }, map)
  | Logical.Semi_join s ->
    let lneed = Iset.union required (iset_of_scalar s.left_key) in
    let rneed = iset_of_scalar s.right_key in
    let left', ml = go s.left lneed in
    let right', mr = go s.right rneed in
    ( Logical.Semi_join
        {
          s with
          left = left';
          right = right';
          left_key = Scalar.shift_cols (fun i -> ml.(i)) s.left_key;
          right_key = Scalar.shift_cols (fun i -> mr.(i)) s.right_key;
        },
      ml )
  | Logical.Apply a ->
    let oa = Logical.arity a.outer in
    let pneed = Iset.of_list (plan_free_params a.inner) in
    let outer_req =
      Iset.union pneed (Iset.filter (fun i -> i < oa) required)
    in
    let outer', mo = go a.outer outer_req in
    let inner = plan_map_params (fun i -> mo.(i)) a.inner in
    (* An outer apply appends every inner column; an EXISTS inner's columns
       are never read. *)
    let inner_req =
      match a.kind with
      | Logical.A_outer -> Iset.of_list (List.init (ar - oa) Fun.id)
      | Logical.A_semi | Logical.A_anti -> Iset.empty
    in
    let inner', mi = go inner inner_req in
    let oa' = Logical.arity outer' in
    let map = Array.make ar (-1) in
    for i = 0 to ar - 1 do
      if i < oa then map.(i) <- mo.(i)
      else if mi.(i - oa) >= 0 then map.(i) <- oa' + mi.(i - oa)
    done;
    (Logical.Apply { a with outer = outer'; inner = inner' }, map)
  | Logical.Group_by g ->
    let need =
      List.fold_left
        (fun acc (s, _) -> Iset.union acc (iset_of_scalar s))
        Iset.empty g.keys
    in
    let need =
      List.fold_left
        (fun acc (a : Logical.agg) ->
          match a.Logical.arg with
          | Some s -> Iset.union acc (iset_of_scalar s)
          | None -> acc)
        need g.aggs
    in
    let child', m = go g.child need in
    let remap = Scalar.shift_cols (fun i -> m.(i)) in
    ( Logical.Group_by
        {
          keys = List.map (fun (s, c) -> (remap s, c)) g.keys;
          aggs =
            List.map
              (fun (a : Logical.agg) ->
                { a with Logical.arg = Option.map remap a.Logical.arg })
              g.aggs;
          child = child';
        },
      Array.init ar Fun.id )
  | Logical.Sort s ->
    let need =
      List.fold_left
        (fun acc (k, _) -> Iset.union acc (iset_of_scalar k))
        required s.keys
    in
    let child', m = go s.child need in
    let remap = Scalar.shift_cols (fun i -> m.(i)) in
    ( Logical.Sort
        { keys = List.map (fun (k, d) -> (remap k, d)) s.keys; child = child' },
      m )
  | Logical.Limit l ->
    let child', m = go l.child required in
    (Logical.Limit { l with child = child' }, m)
  | Logical.Distinct c ->
    (* Deduplication is over the whole row: every column is semantically
       required. *)
    let child', m = go c all in
    (Logical.Distinct child', m)
  | Logical.Audit a ->
    let need = Iset.add a.id_col required in
    let child', m = go a.child need in
    (Logical.Audit { a with id_col = m.(a.id_col); child = child' }, m)
  | Logical.Set_op so ->
    (* Distinct-based set semantics compare whole rows; keep all columns on
       both sides (their schemas align positionally). *)
    let left', _ = go so.left all in
    let right', _ = go so.right all in
    (Logical.Set_op { so with left = left'; right = right' },
     Array.init ar Fun.id)

(** Column pruning. The root's columns are all required, so the output
    schema is unchanged. *)
let prune (plan : Logical.t) : Logical.t =
  let ar = Logical.arity plan in
  let plan', m = go plan (Iset.of_list (List.init ar Fun.id)) in
  (* The mapping at the root must be the identity: wrap defensively if a
     pass ever reorders (it should not). *)
  let identity = Array.for_all2 ( = ) m (Array.init ar Fun.id) in
  if identity then plan'
  else
    let s = Logical.schema plan in
    Logical.Project
      {
        cols =
          List.init ar (fun i -> (Scalar.Col m.(i), Schema.col s i));
        child = plan';
      }
