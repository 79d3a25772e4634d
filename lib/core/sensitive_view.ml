(** Materialized sensitive-ID views (§IV-A1).

    When an audit expression is declared it is compiled to a materialized
    view containing only the partition-by IDs. The audit operator probes
    this set; because only IDs are stored, probing costs one hash lookup per
    row regardless of how complex the audit expression's predicate is.

    Maintenance mirrors standard materialized-view maintenance:
    - single-table expressions are maintained *incrementally* — the
      predicate is evaluated on each inserted/deleted/updated row of the
      sensitive table;
    - expressions with (key–FK) joins are maintained *conservatively* — a
      change to any referenced table marks the view dirty and the next read
      recomputes it. *)

open Storage

type t = {
  expr : Audit_expr.t;
  catalog : Catalog.t;
  ids : int ref Value.Hashtbl_v.t;
      (** sensitive ID -> generation mark; the value cell doubles as the
          audit operator's ACCESSED mark (see {!Exec.Exec_ctx}) *)
  key_idx : int;  (** partition-key position in the sensitive table *)
  row_pred : Plan.Scalar.t option;
      (** single-table predicate over the sensitive table's schema *)
  mutable dirty : bool;
  mutable maintenance_ops : int;  (** statistics: incremental updates done *)
  mutable hooks : (Table.t * (Table.change -> unit)) list;
      (** the change hooks {!detach} removes *)
}

let name t = t.expr.Audit_expr.name

(* Run the ID query and load the hash set. *)
let recompute t =
  Value.Hashtbl_v.reset t.ids;
  let plan =
    Plan.Binder.query t.catalog (Audit_expr.id_query t.expr)
    |> Plan.Optimizer.logical_optimize |> Plan.Optimizer.prune
  in
  let ctx = Exec.Exec_ctx.create t.catalog in
  let rows =
    Exec.Executor.run_list ctx
      (Plan.Physical.plan_of_logical ~catalog:t.catalog plan)
  in
  List.iter
    (fun row ->
      match Tuple.get row 0 with
      | Value.Null -> ()
      | v ->
        if not (Value.Hashtbl_v.mem t.ids v) then
          Value.Hashtbl_v.add t.ids v (ref 0))
    rows;
  t.dirty <- false

let create catalog (expr : Audit_expr.t) : t =
  let table = Catalog.find catalog expr.Audit_expr.sensitive_table in
  let schema = Table.schema table in
  let key_idx = Schema.find schema expr.Audit_expr.partition_by in
  let single = Audit_expr.is_single_table expr in
  let row_pred =
    if not single then None
    else
      match expr.Audit_expr.definition.Sql.Ast.where with
      | None -> Some (Plan.Scalar.Const (Value.Bool true))
      | Some w -> Some (Plan.Binder.scalar catalog schema w)
  in
  let t =
    {
      expr;
      catalog;
      ids = Value.Hashtbl_v.create 1024;
      key_idx;
      row_pred;
      dirty = true;
      maintenance_ops = 0;
      hooks = [];
    }
  in
  (* Hook the sensitive table for incremental (or dirtying) maintenance. *)
  let eval_ctx = Exec.Exec_ctx.create catalog in
  let satisfies row =
    match t.row_pred with
    | Some p -> Exec.Eval.truthy eval_ctx row p
    | None -> false
  in
  let on_sensitive_change change =
    t.maintenance_ops <- t.maintenance_ops + 1;
    if t.dirty then ()
    else if t.row_pred = None then t.dirty <- true
    else
      match change with
      | Table.Inserted row ->
        if satisfies row then begin
          let id = Tuple.get row t.key_idx in
          if not (Value.Hashtbl_v.mem t.ids id) then
            Value.Hashtbl_v.add t.ids id (ref 0)
        end
      | Table.Deleted row ->
        if satisfies row then
          Value.Hashtbl_v.remove t.ids (Tuple.get row t.key_idx)
      | Table.Updated { before; after } ->
        if satisfies before then
          Value.Hashtbl_v.remove t.ids (Tuple.get before t.key_idx);
        if satisfies after then begin
          let id = Tuple.get after t.key_idx in
          if not (Value.Hashtbl_v.mem t.ids id) then
            Value.Hashtbl_v.add t.ids id (ref 0)
        end
  in
  let hook tb f =
    Table.on_change tb f;
    t.hooks <- (tb, f) :: t.hooks
  in
  hook table on_sensitive_change;
  (* Other referenced tables only dirty the view. *)
  List.iter
    (fun tname ->
      if not (Schema.equal_names tname expr.Audit_expr.sensitive_table) then
        match Catalog.find_opt catalog tname with
        | Some tb -> hook tb (fun _ -> t.dirty <- true)
        | None -> ())
    (Audit_expr.referenced_tables expr);
  recompute t;
  t

let detach t = List.iter (fun (tb, f) -> Table.off_change tb f) t.hooks

let refresh t = if t.dirty then recompute t

(** The ID set, refreshed if stale. The audit operator probes this. *)
let ids t =
  refresh t;
  t.ids

let cardinality t = Value.Hashtbl_v.length (ids t)
let contains t v = Value.Hashtbl_v.mem (ids t) v

let to_list t =
  Value.Hashtbl_v.fold (fun v _ acc -> v :: acc) (ids t) []
  |> List.sort Value.compare_total
