(** Name resolution and logical-plan construction.

    Translates parsed queries into positional {!Logical} plans: FROM builds
    the join tree; WHERE conjuncts become filters, semi/anti joins
    (uncorrelated IN/EXISTS) or correlated applies; scalar subqueries are
    hoisted into [A_outer] applies over a [LIMIT 1] inner; aggregation binds SELECT/HAVING/ORDER
    BY against the group output; set operations combine independently
    bound components. *)

open Storage

exception Bind_error of string

(** Best-effort static type of a bound expression (display schemas). *)
val infer_type : Schema.t -> Scalar.t -> Datatype.t

(** Bind a full query against a catalog. Raises {!Bind_error}. *)
val query : Catalog.t -> Sql.Ast.query -> Logical.t

(** Bind a standalone expression over a schema — UPDATE/DELETE predicates
    and audit-expression predicates. No subqueries allowed. *)
val scalar : Catalog.t -> Schema.t -> Sql.Ast.expr -> Scalar.t
