(** Logical optimizer.

    Pipeline order matters for auditing: [logical_optimize] runs before
    audit-operator placement (pushdown creates the "single-table filters at
    the leaf" property the leaf-node heuristic relies on, §III-C), and
    [prune] runs after it (pruning is audit-aware and keeps partition-key
    columns alive — forced ID propagation, §IV-A2). *)

(** Fold one scalar expression: [TRUE AND x] is [x] (and the other
    AND/OR identities), and any other node whose operands are all
    constants is replaced by its value under {!Scalar_eval.eval}. A node
    whose evaluation raises stays, so the error surfaces at run time;
    [Col], [Param], [Slot] and the session functions [now()],
    [user_id()], [sql_text()] never fold. *)
val fold_scalar : Scalar.t -> Scalar.t

(** Constant folding over a whole plan. *)
val fold_constants : Logical.t -> Logical.t

(** Predicate pushdown + inner-join predicate extraction. *)
val push_down : Logical.t -> Logical.t

(** Fold → pushdown → (with [?catalog], greedy cost-based join reordering
    — see {!Join_reorder}) → fold. *)
val logical_optimize : ?catalog:Storage.Catalog.t -> Logical.t -> Logical.t

(** Column pruning with exact index remapping; output schema preserved.
    [Audit] nodes' ID columns are treated as required. *)
val prune : Logical.t -> Logical.t

(** {2 Correlation-scoped utilities} (exposed for {!Plan.Binder} users and
    tests; params refer to the nearest enclosing apply's outer row) *)

(** Outer columns referenced via [Param] by a subquery's top-level scope. *)
val plan_free_params : Logical.t -> int list

(** Renumber the [Param]s of a subquery's top-level scope. *)
val plan_map_params : (int -> int) -> Logical.t -> Logical.t
