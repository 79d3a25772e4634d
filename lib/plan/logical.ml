(** Logical query plans.

    Plans are immutable operator trees. Schemas are positional: a join's
    output is the concatenation of its children's schemas, and all scalar
    expressions attached to a node are bound against that node's *input*
    schema (its children's output).

    The [Audit] node is the paper's audit operator (§III-B): a no-op that
    observes the ID column of every row flowing through it. It is inserted
    by {!Placement} in [lib/core], never by the binder. *)

open Storage

type join_kind = J_inner | J_left

type apply_kind =
  | A_semi  (** EXISTS: keep outer rows with at least one inner row *)
  | A_anti  (** NOT EXISTS: keep outer rows with no inner row *)
  | A_outer
      (** OUTER APPLY: append every inner row to the outer row, or NULL-pad
          an outer row that has none (a scalar subquery is an outer apply
          over a one-column [LIMIT 1] inner) *)

type agg_func = Count | Sum | Avg | Min | Max

type agg = {
  func : agg_func;
  arg : Scalar.t option;  (** [None] = COUNT(<star>) *)
  distinct : bool;
  out : Schema.column;
}

type t =
  | Scan of {
      table : string;
      alias : string;
      schema : Schema.t;  (** full table schema, re-qualified by alias *)
      cols : int array option;  (** projected scan (column pruning) *)
    }
  | Filter of { pred : Scalar.t; child : t }
  | Project of { cols : (Scalar.t * Schema.column) list; child : t }
  | Join of { kind : join_kind; pred : Scalar.t option; left : t; right : t }
  | Semi_join of {
      anti : bool;
      left : t;
      left_key : Scalar.t;  (** over left schema *)
      right : t;
      right_key : Scalar.t;  (** over right schema *)
    }
  | Apply of {
      kind : apply_kind;
      outer : t;
      inner : t;  (** may reference outer columns via [Scalar.Param] *)
    }
  | Group_by of {
      keys : (Scalar.t * Schema.column) list;
      aggs : agg list;
      child : t;
    }
  | Sort of { keys : (Scalar.t * Sql.Ast.order_dir) list; child : t }
  | Limit of { n : int; child : t }
  | Distinct of t
  | Audit of {
      audit_name : string;  (** audit expression this operator checks *)
      id_col : int;  (** position of the partition-by key in the input *)
      child : t;
    }
  | Set_op of { op : Sql.Ast.set_op; left : t; right : t }
      (** UNION [ALL] / EXCEPT / INTERSECT; schemas must align by position *)

let agg_func_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"

(** Output type of an aggregate (independent of input: we only need it for
    schema display; values are dynamically typed). *)
let agg_type = function
  | Count -> Datatype.T_int
  | Avg -> Datatype.T_float
  | Sum | Min | Max -> Datatype.T_float

let rec schema : t -> Schema.t = function
  | Scan { schema = s; cols = None; _ } -> s
  | Scan { schema = s; cols = Some idxs; _ } ->
    Array.map (fun i -> Schema.col s i) idxs
  | Filter { child; _ } -> schema child
  | Project { cols; _ } -> Schema.of_list (List.map snd cols)
  | Join { left; right; _ } -> Schema.append (schema left) (schema right)
  | Semi_join { left; _ } -> schema left
  | Apply { kind = A_outer; outer; inner } ->
    Schema.append (schema outer) (schema inner)
  | Apply { outer; _ } -> schema outer
  | Group_by { keys; aggs; _ } ->
    Schema.of_list (List.map snd keys @ List.map (fun a -> a.out) aggs)
  | Sort { child; _ } -> schema child
  | Limit { child; _ } -> schema child
  | Distinct child -> schema child
  | Audit { child; _ } -> schema child
  | Set_op { left; _ } -> schema left

let arity t = Schema.arity (schema t)

(** All audit operators in the plan, with the schema they observe.
    Descends into subquery (apply / semi-join) inner plans. *)
let rec audits = function
  | Scan _ -> []
  | Filter { child; _ }
  | Project { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Group_by { child; _ } ->
    audits child
  | Distinct child -> audits child
  | Join { left; right; _ } -> audits left @ audits right
  | Semi_join { left; right; _ } -> audits left @ audits right
  | Apply { outer; inner; _ } -> audits outer @ audits inner
  | Set_op { left; right; _ } -> audits left @ audits right
  | Audit ({ child; _ } as a) -> (a.audit_name, a.id_col) :: audits child

(** Strip every audit operator (inverse of instrumentation). *)
let rec strip_audits = function
  | Scan _ as s -> s
  | Filter f -> Filter { f with child = strip_audits f.child }
  | Project p -> Project { p with child = strip_audits p.child }
  | Join j ->
    Join { j with left = strip_audits j.left; right = strip_audits j.right }
  | Semi_join s ->
    Semi_join
      { s with left = strip_audits s.left; right = strip_audits s.right }
  | Apply a ->
    Apply { a with outer = strip_audits a.outer; inner = strip_audits a.inner }
  | Group_by g -> Group_by { g with child = strip_audits g.child }
  | Sort s -> Sort { s with child = strip_audits s.child }
  | Limit l -> Limit { l with child = strip_audits l.child }
  | Distinct c -> Distinct (strip_audits c)
  | Audit { child; _ } -> strip_audits child
  | Set_op s ->
    Set_op { s with left = strip_audits s.left; right = strip_audits s.right }

(** Rewrite every scalar of the plan with [f]: a node's own scalars
    first, then its children, left to right, so a stateful [f] (literal
    lifting) numbers equal plans alike. *)
let rec map_scalars f p =
  let go = map_scalars f in
  let keyed keys = List.map (fun (e, x) -> (f e, x)) keys in
  match p with
  | Scan _ -> p
  | Filter { pred; child } ->
    let pred = f pred in
    Filter { pred; child = go child }
  | Project { cols; child } ->
    let cols = keyed cols in
    Project { cols; child = go child }
  | Join j ->
    let pred = Option.map f j.pred in
    let left = go j.left in
    Join { j with pred; left; right = go j.right }
  | Semi_join s ->
    let left_key = f s.left_key in
    let right_key = f s.right_key in
    let left = go s.left in
    Semi_join { s with left_key; right_key; left; right = go s.right }
  | Apply a ->
    let outer = go a.outer in
    Apply { a with outer; inner = go a.inner }
  | Group_by { keys; aggs; child } ->
    let keys = keyed keys in
    let aggs = List.map (fun a -> { a with arg = Option.map f a.arg }) aggs in
    Group_by { keys; aggs; child = go child }
  | Sort { keys; child } ->
    let keys = keyed keys in
    Sort { keys; child = go child }
  | Limit l -> Limit { l with child = go l.child }
  | Distinct c -> Distinct (go c)
  | Audit a -> Audit { a with child = go a.child }
  | Set_op s ->
    let left = go s.left in
    Set_op { s with left; right = go s.right }

(** Scan aliases present in a plan (excluding subquery inners). *)
let rec scan_tables = function
  | Scan { table; alias; _ } -> [ (table, alias) ]
  | Filter { child; _ }
  | Project { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Group_by { child; _ } ->
    scan_tables child
  | Distinct child -> scan_tables child
  | Join { left; right; _ } -> scan_tables left @ scan_tables right
  | Semi_join { left; right; _ } -> scan_tables left @ scan_tables right
  | Apply { outer; inner; _ } -> scan_tables outer @ scan_tables inner
  | Set_op { left; right; _ } -> scan_tables left @ scan_tables right
  | Audit { child; _ } -> scan_tables child

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

(* [annot] appends a per-node suffix (EXPLAIN ANALYZE row counts and
   timings); [pp]/[to_string] pass a constant [None]. *)
let rec pp_tree annot ppf (indent, t) =
  let pad = String.make (2 * indent) ' ' in
  let suffix = match annot t with None -> "" | Some s -> " " ^ s in
  let line fmt =
    Fmt.kstr (fun s -> Fmt.pf ppf "%s%s%s@." pad s suffix) fmt
  in
  match t with
  | Scan { table; alias; cols; _ } ->
    let proj =
      match cols with
      | None -> ""
      | Some idxs ->
        Printf.sprintf " cols=[%s]"
          (String.concat ","
             (List.map string_of_int (Array.to_list idxs)))
    in
    if table = alias then line "Scan %s%s" table proj
    else line "Scan %s as %s%s" table alias proj
  | Filter { pred; child } ->
    line "Filter %s" (Scalar.to_string pred);
    pp_tree annot ppf (indent + 1, child)
  | Project { cols; child } ->
    let names = List.map (fun (_, c) -> c.Schema.name) cols in
    line "Project [%s]" (String.concat ", " names);
    pp_tree annot ppf (indent + 1, child)
  | Join { kind; pred; left; right } ->
    let k = match kind with J_inner -> "InnerJoin" | J_left -> "LeftJoin" in
    let p =
      match pred with None -> "" | Some e -> " on " ^ Scalar.to_string e
    in
    line "%s%s" k p;
    pp_tree annot ppf (indent + 1, left);
    pp_tree annot ppf (indent + 1, right)
  | Semi_join { anti; left; left_key; right; right_key } ->
    line "%s %s = %s"
      (if anti then "AntiJoin" else "SemiJoin")
      (Scalar.to_string left_key) (Scalar.to_string right_key);
    pp_tree annot ppf (indent + 1, left);
    pp_tree annot ppf (indent + 1, right)
  | Apply { kind; outer; inner; _ } ->
    let k =
      match kind with
      | A_semi -> "SemiApply"
      | A_anti -> "AntiApply"
      | A_outer -> "OuterApply"
    in
    line "%s" k;
    pp_tree annot ppf (indent + 1, outer);
    pp_tree annot ppf (indent + 1, inner)
  | Group_by { keys; aggs; child } ->
    let ks = List.map (fun (e, _) -> Scalar.to_string e) keys in
    let ags =
      List.map
        (fun a ->
          let arg =
            match a.arg with None -> "*" | Some e -> Scalar.to_string e
          in
          Printf.sprintf "%s(%s%s)" (agg_func_name a.func)
            (if a.distinct then "distinct " else "")
            arg)
        aggs
    in
    line "GroupBy keys=[%s] aggs=[%s]" (String.concat ", " ks)
      (String.concat ", " ags);
    pp_tree annot ppf (indent + 1, child)
  | Sort { keys; child } ->
    let ks =
      List.map
        (fun (e, d) ->
          Scalar.to_string e
          ^ match d with Sql.Ast.Asc -> " asc" | Sql.Ast.Desc -> " desc")
        keys
    in
    line "Sort [%s]" (String.concat ", " ks);
    pp_tree annot ppf (indent + 1, child)
  | Limit { n; child } ->
    line "Limit %d" n;
    pp_tree annot ppf (indent + 1, child)
  | Distinct child ->
    line "Distinct";
    pp_tree annot ppf (indent + 1, child)
  | Audit { audit_name; id_col; child } ->
    line "*Audit[%s] id=#%d" audit_name id_col;
    pp_tree annot ppf (indent + 1, child)
  | Set_op { op; left; right } ->
    let name =
      match op with
      | Sql.Ast.Union -> "Union"
      | Sql.Ast.Union_all -> "UnionAll"
      | Sql.Ast.Except -> "Except"
      | Sql.Ast.Intersect -> "Intersect"
    in
    line "%s" name;
    pp_tree annot ppf (indent + 1, left);
    pp_tree annot ppf (indent + 1, right)

let no_annot _ = None
let pp ppf t = pp_tree no_annot ppf (0, t)
let to_string t = Fmt.str "%a" pp t

(** Render the tree with a per-node annotation (used by EXPLAIN ANALYZE). *)
let to_string_annotated ~annot t = Fmt.str "%a" (fun ppf -> pp_tree annot ppf) (0, t)
