(** Physical query plans.

    {!plan_of_logical} lowers a {!Logical.t} tree into an explicit physical
    operator tree, making every execution-strategy decision — hash- versus
    nested-loop join selection, equi-key extraction ({!split_equi}), the
    index-nested-loop refinement and Sort+Limit fusion into TopK — a plan
    transform instead of a side effect of cursor compilation. Each node
    carries the estimated output cardinality from {!Cardinality}, so
    EXPLAIN can show estimated-vs-actual row counts per physical operator.

    The audit operator of the paper (§IV-A2) appears here as [Audit_probe].
    Placement ({!Placement} in [lib/core]) still runs on the logical tree —
    the hcn argument is about operator commutativity, not physical strategy
    — and the lowering preserves audit positions exactly, with one guard:
    an audit operator is never folded into an index-lookup probe chain,
    because its observed cardinalities must not depend on the physical
    operators chosen (§III). *)

open Storage

type t = { op : op; est : float  (** estimated output rows *) }

and op =
  | Seq_scan of {
      table : string;
      alias : string;
      schema : Schema.t;
      cols : int array option;  (** projected scan (column pruning) *)
    }
  | Filter of { pred : Scalar.t; child : t }
  | Project of { cols : (Scalar.t * Schema.column) list; child : t }
  | Hash_join of {
      kind : Logical.join_kind;
      lkeys : Scalar.t array;  (** over the left schema *)
      rkeys : Scalar.t array;  (** over the right schema *)
      residual : Scalar.t option;  (** over the combined schema *)
      left : t;
      right : t;
      right_arity : int;  (** for LEFT JOIN null padding *)
    }
  | Nl_join of {
      kind : Logical.join_kind;
      pred : Scalar.t option;  (** over the combined schema *)
      left : t;
      right : t;
      right_arity : int;
    }
  | Index_nl_join of {
      kind : Logical.join_kind;
      left : t;
      left_key : Scalar.t;  (** over the left schema *)
      table : string;  (** right base table, looked up per left row *)
      base_col : int;  (** indexed column in the base-table schema *)
      cols : int array option;  (** scan projection of the right side *)
      chain : t;  (** the right side as a physical tree — a
                      [Filter]/[Audit_probe] chain over [Seq_scan]; each
                      fetched row is pushed through it so metrics stay
                      attributable per node *)
      residual : Scalar.t option;
      right_arity : int;
    }
  | Hash_semi_join of {
      anti : bool;
      left : t;
      left_key : Scalar.t;
      right : t;
      right_key : Scalar.t;
    }
  | Apply of { kind : Logical.apply_kind; outer : t; inner : t }
  | Hash_agg of {
      keys : (Scalar.t * Schema.column) list;
      aggs : Logical.agg list;
      child : t;
    }
  | Sort of { keys : (Scalar.t * Sql.Ast.order_dir) list; child : t }
  | Top_k of {
      n : int;
      keys : (Scalar.t * Sql.Ast.order_dir) list;
      child : t;
    }  (** fused Limit-over-Sort *)
  | Limit of { n : int; child : t }
  | Distinct of t
  | Audit_probe of {
      audit_name : string;
      id_col : int;  (** position of the partition-by key in the input *)
      child : t;
    }
  | Set_op of { op : Sql.Ast.set_op; left : t; right : t }

(* ------------------------------------------------------------------ *)
(* Equi-key extraction                                                 *)
(* ------------------------------------------------------------------ *)

(** Partition join-predicate conjuncts into equi-key pairs
    [(left_key, right_key_over_right_schema)] and a residual list. *)
let split_equi ~left_arity pred =
  let conjs = match pred with None -> [] | Some p -> Scalar.conjuncts p in
  let la = left_arity in
  let classify c =
    match c with
    | Scalar.Binop (Sql.Ast.Eq, a, b) -> (
      let fa = Scalar.free_cols a and fb = Scalar.free_cols b in
      let all_left l = l <> [] && List.for_all (fun i -> i < la) l in
      let all_right l = l <> [] && List.for_all (fun i -> i >= la) l in
      let shift = Scalar.shift_cols (fun i -> i - la) in
      if all_left fa && all_right fb then `Equi (a, shift b)
      else if all_left fb && all_right fa then `Equi (b, shift a)
      else `Residual c)
    | _ -> `Residual c
  in
  List.fold_left
    (fun (keys, res) c ->
      match classify c with
      | `Equi (l, r) -> ((l, r) :: keys, res)
      | `Residual c -> (keys, c :: res))
    ([], []) conjs
  |> fun (keys, res) -> (List.rev keys, List.rev res)

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* A right side usable for index nested loops: a chain of Filter/Audit
   operators over a bare Scan. *)
let rec probe_chain (plan : Logical.t) :
    (string * int array option * bool (* chain carries an audit *)) option =
  match plan with
  | Logical.Scan { table; cols; _ } -> Some (table, cols, false)
  | Logical.Filter { child; _ } -> probe_chain child
  | Logical.Audit { child; _ } ->
    Option.map (fun (t, c, _) -> (t, c, true)) (probe_chain child)
  | _ -> None

let plan_of_logical ~(catalog : Catalog.t) (logical : Logical.t) : t =
  let rec go (l : Logical.t) : t =
    let est = Cardinality.estimate catalog l in
    match l with
    | Logical.Scan { table; alias; schema; cols } ->
      { op = Seq_scan { table; alias; schema; cols }; est }
    | Logical.Filter { pred; child } ->
      { op = Filter { pred; child = go child }; est }
    | Logical.Project { cols; child } ->
      { op = Project { cols; child = go child }; est }
    | Logical.Join { kind; pred; left; right } ->
      plan_join ~est kind pred left right
    | Logical.Semi_join { anti; left; left_key; right; right_key } ->
      {
        op =
          Hash_semi_join
            { anti; left = go left; left_key; right = go right; right_key };
        est;
      }
    | Logical.Apply { kind; outer; inner; _ } ->
      { op = Apply { kind; outer = go outer; inner = go inner }; est }
    | Logical.Group_by { keys; aggs; child } ->
      { op = Hash_agg { keys; aggs; child = go child }; est }
    | Logical.Sort { keys; child } ->
      { op = Sort { keys; child = go child }; est }
    | Logical.Limit { n; child = Logical.Sort { keys; child } } ->
      (* Sort directly under Limit: fuse into a bounded TopK. *)
      { op = Top_k { n; keys; child = go child }; est }
    | Logical.Limit { n; child } -> { op = Limit { n; child = go child }; est }
    | Logical.Distinct child -> { op = Distinct (go child); est }
    | Logical.Audit { audit_name; id_col; child } ->
      { op = Audit_probe { audit_name; id_col; child = go child }; est }
    | Logical.Set_op { op; left; right } ->
      { op = Set_op { op; left = go left; right = go right }; est }
  (* Join strategy selection, in descending preference:

     1. Index nested loops — single equi key, right side a Filter chain
        over a scan of an indexed column, left side estimated well below
        the right table: per-left-row index lookups beat hashing the whole
        right side. Refused when the probe chain carries an audit operator:
        an audit inside an index lookup would observe only the fetched
        rows, making audit cardinalities depend on the physical plan,
        which §III forbids.
     2. Hash join — at least one equi key.
     3. Nested loops — everything else. *)
  and plan_join ~est kind pred left right : t =
    let la = Logical.arity left in
    let ra = Logical.arity right in
    let keys, residual = split_equi ~left_arity:la pred in
    let residual =
      if residual = [] then None else Some (Scalar.conjoin residual)
    in
    let inl =
      match keys with
      | [ (lk, Scalar.Col j) ] -> (
        match probe_chain right with
        | Some (_, _, true) | None -> None
        | Some (table, cols, false) -> (
          let base_col = match cols with None -> j | Some idxs -> idxs.(j) in
          match Catalog.find_opt catalog table with
          | Some t
            when (t |> Table.key) = Some base_col
                 || List.mem base_col (Table.indexed_columns t) ->
            let left_est = Cardinality.estimate catalog left in
            if left_est *. 4.0 < float_of_int (Table.cardinality t) then
              Some (lk, base_col, table, cols)
            else None
          | _ -> None))
      | _ -> None
    in
    match inl with
    | Some (left_key, base_col, table, cols) ->
      {
        op =
          Index_nl_join
            {
              kind;
              left = go left;
              left_key;
              table;
              base_col;
              cols;
              chain = go right;
              residual;
              right_arity = ra;
            };
        est;
      }
    | None ->
      if keys <> [] then
        {
          op =
            Hash_join
              {
                kind;
                lkeys = Array.of_list (List.map fst keys);
                rkeys = Array.of_list (List.map snd keys);
                residual;
                left = go left;
                right = go right;
                right_arity = ra;
              };
          est;
        }
      else
        {
          op =
            Nl_join
              { kind; pred; left = go left; right = go right; right_arity = ra };
          est;
        }
  in
  go logical

(* ------------------------------------------------------------------ *)
(* Tree accessors                                                      *)
(* ------------------------------------------------------------------ *)

(** All audit operators in the plan, pre-order, with their ID column.
    Descends into subquery inners and index-lookup probe chains. *)
let rec audits { op; _ } =
  match op with
  | Seq_scan _ -> []
  | Filter { child; _ }
  | Project { child; _ }
  | Hash_agg { child; _ }
  | Sort { child; _ }
  | Top_k { child; _ }
  | Limit { child; _ } ->
    audits child
  | Distinct child -> audits child
  | Hash_join { left; right; _ }
  | Nl_join { left; right; _ }
  | Hash_semi_join { left; right; _ }
  | Set_op { left; right; _ } ->
    audits left @ audits right
  | Apply { outer; inner; _ } -> audits outer @ audits inner
  | Index_nl_join { left; chain; _ } -> audits left @ audits chain
  | Audit_probe { audit_name; id_col; child } ->
    (audit_name, id_col) :: audits child

let rec map_scalars f p =
  let go = map_scalars f in
  let keyed keys = List.map (fun (e, x) -> (f e, x)) keys in
  let op =
    match p.op with
    | Seq_scan _ as op -> op
    | Filter { pred; child } -> Filter { pred = f pred; child = go child }
    | Project { cols; child } -> Project { cols = keyed cols; child = go child }
    | Hash_join j ->
      Hash_join
        {
          j with
          lkeys = Array.map f j.lkeys;
          rkeys = Array.map f j.rkeys;
          residual = Option.map f j.residual;
          left = go j.left;
          right = go j.right;
        }
    | Nl_join j ->
      Nl_join
        { j with pred = Option.map f j.pred; left = go j.left; right = go j.right }
    | Index_nl_join j ->
      Index_nl_join
        {
          j with
          left_key = f j.left_key;
          residual = Option.map f j.residual;
          left = go j.left;
          chain = go j.chain;
        }
    | Hash_semi_join s ->
      Hash_semi_join
        {
          s with
          left_key = f s.left_key;
          right_key = f s.right_key;
          left = go s.left;
          right = go s.right;
        }
    | Apply a -> Apply { a with outer = go a.outer; inner = go a.inner }
    | Hash_agg { keys; aggs; child } ->
      Hash_agg
        {
          keys = keyed keys;
          aggs =
            List.map
              (fun (a : Logical.agg) -> { a with arg = Option.map f a.arg })
              aggs;
          child = go child;
        }
    | Sort { keys; child } -> Sort { keys = keyed keys; child = go child }
    | Top_k t -> Top_k { t with keys = keyed t.keys; child = go t.child }
    | Limit l -> Limit { l with child = go l.child }
    | Distinct c -> Distinct (go c)
    | Audit_probe a -> Audit_probe { a with child = go a.child }
    | Set_op s -> Set_op { s with left = go s.left; right = go s.right }
  in
  { p with op }

(** Direct children of a node (the probe chain counts as a child). *)
let children { op; _ } =
  match op with
  | Seq_scan _ -> []
  | Filter { child; _ }
  | Project { child; _ }
  | Hash_agg { child; _ }
  | Sort { child; _ }
  | Top_k { child; _ }
  | Limit { child; _ }
  | Audit_probe { child; _ } ->
    [ child ]
  | Distinct child -> [ child ]
  | Hash_join { left; right; _ }
  | Nl_join { left; right; _ }
  | Hash_semi_join { left; right; _ }
  | Set_op { left; right; _ } ->
    [ left; right ]
  | Apply { outer; inner; _ } -> [ outer; inner ]
  | Index_nl_join { left; chain; _ } -> [ left; chain ]

(** Output width of a node. *)
let rec arity { op; _ } =
  match op with
  | Seq_scan { schema; cols = None; _ } -> Schema.arity schema
  | Seq_scan { cols = Some idxs; _ } -> Array.length idxs
  | Filter { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Top_k { child; _ }
  | Audit_probe { child; _ }
  | Distinct child
  | Hash_semi_join { left = child; _ }
  | Set_op { left = child; _ } ->
    arity child
  | Project { cols; _ } -> List.length cols
  | Hash_join { left; right; _ } | Nl_join { left; right; _ } ->
    arity left + arity right
  | Index_nl_join { left; right_arity; _ } -> arity left + right_arity
  | Apply { kind = Logical.A_outer; outer; inner } -> arity outer + arity inner
  | Apply { outer; _ } -> arity outer
  | Hash_agg { keys; aggs; _ } -> List.length keys + List.length aggs

(** Physical operator name, e.g. [HashJoin] — used by metrics labels,
    fault-point matching and the EXPLAIN tree. *)
let label { op; _ } =
  let dir = function Logical.J_inner -> "" | Logical.J_left -> "Left" in
  match op with
  | Seq_scan { table; alias; _ } ->
    if table = alias then "SeqScan " ^ table
    else Printf.sprintf "SeqScan %s as %s" table alias
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Hash_join { kind; _ } -> dir kind ^ "HashJoin"
  | Nl_join { kind; _ } -> dir kind ^ "NLJoin"
  | Index_nl_join { kind; _ } -> dir kind ^ "IndexNLJoin"
  | Hash_semi_join { anti = false; _ } -> "HashSemiJoin"
  | Hash_semi_join { anti = true; _ } -> "HashAntiJoin"
  | Apply { kind = Logical.A_semi; _ } -> "SemiApply"
  | Apply { kind = Logical.A_anti; _ } -> "AntiApply"
  | Apply { kind = Logical.A_outer; _ } -> "OuterApply"
  | Hash_agg _ -> "HashAgg"
  | Sort _ -> "Sort"
  | Top_k { n; _ } -> Printf.sprintf "TopK %d" n
  | Limit { n; _ } -> Printf.sprintf "Limit %d" n
  | Distinct _ -> "Distinct"
  | Audit_probe { audit_name; _ } ->
    Printf.sprintf "AuditProbe[%s]" audit_name
  | Set_op { op = Sql.Ast.Union; _ } -> "Union"
  | Set_op { op = Sql.Ast.Union_all; _ } -> "UnionAll"
  | Set_op { op = Sql.Ast.Except; _ } -> "Except"
  | Set_op { op = Sql.Ast.Intersect; _ } -> "Intersect"

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

(* [annot] appends a per-node suffix (cardinalities, EXPLAIN ANALYZE
   actuals). The default annotation shows the estimate alone. *)
let rec pp_tree annot ppf (indent, node) =
  let pad = String.make (2 * indent) ' ' in
  let suffix = match annot node with None -> "" | Some s -> " " ^ s in
  let line fmt =
    Fmt.kstr (fun s -> Fmt.pf ppf "%s%s%s@." pad s suffix) fmt
  in
  let child c = pp_tree annot ppf (indent + 1, c) in
  match node.op with
  | Seq_scan { cols; _ } ->
    let proj =
      match cols with
      | None -> ""
      | Some idxs ->
        Printf.sprintf " cols=[%s]"
          (String.concat "," (List.map string_of_int (Array.to_list idxs)))
    in
    line "%s%s" (label node) proj
  | Filter { pred; child = c } ->
    line "Filter %s" (Scalar.to_string pred);
    child c
  | Project { cols; child = c } ->
    let names = List.map (fun (_, col) -> col.Schema.name) cols in
    line "Project [%s]" (String.concat ", " names);
    child c
  | Hash_join { lkeys; rkeys; residual; left; right; _ } ->
    let keys =
      List.map2
        (fun l r -> Scalar.to_string l ^ " = " ^ Scalar.to_string r)
        (Array.to_list lkeys) (Array.to_list rkeys)
    in
    let res =
      match residual with
      | None -> ""
      | Some p -> " residual " ^ Scalar.to_string p
    in
    line "%s on [%s]%s" (label node) (String.concat ", " keys) res;
    child left;
    child right
  | Nl_join { pred; left; right; _ } ->
    let p =
      match pred with None -> "" | Some e -> " on " ^ Scalar.to_string e
    in
    line "%s%s" (label node) p;
    child left;
    child right
  | Index_nl_join { left; left_key; table; base_col; residual; chain; _ } ->
    let res =
      match residual with
      | None -> ""
      | Some p -> " residual " ^ Scalar.to_string p
    in
    line "%s %s = %s.#%d%s" (label node)
      (Scalar.to_string left_key)
      table base_col res;
    child left;
    child chain
  | Hash_semi_join { left; left_key; right; right_key; _ } ->
    line "%s %s = %s" (label node)
      (Scalar.to_string left_key)
      (Scalar.to_string right_key);
    child left;
    child right
  | Apply { outer; inner; _ } ->
    line "%s" (label node);
    child outer;
    child inner
  | Hash_agg { keys; aggs; child = c } ->
    let ks = List.map (fun (e, _) -> Scalar.to_string e) keys in
    let ags =
      List.map
        (fun a ->
          let arg =
            match a.Logical.arg with
            | None -> "*"
            | Some e -> Scalar.to_string e
          in
          Printf.sprintf "%s(%s%s)"
            (Logical.agg_func_name a.Logical.func)
            (if a.Logical.distinct then "distinct " else "")
            arg)
        aggs
    in
    line "HashAgg keys=[%s] aggs=[%s]" (String.concat ", " ks)
      (String.concat ", " ags);
    child c
  | Sort { keys; child = c } | Top_k { keys; child = c; _ } ->
    let ks =
      List.map
        (fun (e, d) ->
          Scalar.to_string e
          ^ match d with Sql.Ast.Asc -> " asc" | Sql.Ast.Desc -> " desc")
        keys
    in
    line "%s [%s]" (label node) (String.concat ", " ks);
    child c
  | Limit { child = c; _ } ->
    line "%s" (label node);
    child c
  | Distinct c ->
    line "Distinct";
    child c
  | Audit_probe { id_col; child = c; _ } ->
    line "%s id=#%d" (label node) id_col;
    child c
  | Set_op { left; right; _ } ->
    line "%s" (label node);
    child left;
    child right

let est_annot node = Some (Printf.sprintf "(est rows=%.0f)" node.est)
let pp ppf t = pp_tree est_annot ppf (0, t)
let to_string t = Fmt.str "%a" pp t

(** Render the tree with a custom per-node annotation (EXPLAIN ANALYZE). *)
let to_string_annotated ~annot t =
  Fmt.str "%a" (fun ppf -> pp_tree annot ppf) (0, t)
