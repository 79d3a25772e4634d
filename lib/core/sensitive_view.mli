(** Materialized sensitive-ID views (§IV-A1): each audit expression compiles
    to a hash table of partition-by IDs, maintained incrementally through
    table change hooks.

    The table's values are generation marks: the physical audit operator
    records an access by storing the current query generation into the
    probed entry ({!Exec.Exec_ctx}), making probe-and-mark a single hash
    lookup (§IV-A2). *)

open Storage

type t = {
  expr : Audit_expr.t;
  catalog : Catalog.t;
  ids : int ref Value.Hashtbl_v.t;  (** sensitive ID -> generation mark *)
  key_idx : int;  (** partition-key position in the sensitive table *)
  row_pred : Plan.Scalar.t option;
      (** single-table predicate enabling exact incremental maintenance *)
  mutable dirty : bool;
  mutable maintenance_ops : int;  (** statistics *)
  mutable hooks : (Table.t * (Table.change -> unit)) list;
      (** the change hooks {!detach} removes *)
}

(** Build the view, load its IDs, and register maintenance hooks:
    incremental on the sensitive table (single-table expressions),
    dirty-and-recompute when a joined table changes. *)
val create : Catalog.t -> Audit_expr.t -> t

(** Remove the view's change hooks (DROP AUDIT EXPRESSION): the tables'
    later changes no longer maintain it. *)
val detach : t -> unit

val name : t -> string

(** Recompute from scratch (exposed for tests). *)
val recompute : t -> unit

(** Recompute only if marked dirty. *)
val refresh : t -> unit

(** The ID/mark table, refreshed if stale. *)
val ids : t -> int ref Value.Hashtbl_v.t

val cardinality : t -> int
val contains : t -> Value.t -> bool

(** Sorted ID list. *)
val to_list : t -> Value.t list
