(** Physical query plans.

    {!plan_of_logical} lowers a {!Logical.t} into an explicit physical
    operator tree: join strategies are chosen here (hash / nested-loop /
    index-nested-loop, with equi-keys extracted by {!split_equi}),
    Sort+Limit fuses into [Top_k], and every node records its estimated
    output cardinality from {!Cardinality}. The executor consumes only
    this tree — it makes no strategy decisions of its own — and EXPLAIN,
    metrics and the audit-placement checks are all anchored on it.

    Audit positions chosen by placement on the logical tree are preserved
    exactly ([Audit_probe] nodes); the index-nested-loop refinement is
    refused when it would fold an audit operator into a lookup probe
    chain, keeping audit cardinalities independent of physical strategy
    (§III). *)

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
      chain : t;
          (** the right side as a physical tree — a [Filter]/[Audit_probe]
              chain over [Seq_scan]; fetched rows are pushed through it *)
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

(** Partition join-predicate conjuncts into equi-key pairs
    [(left_key, right_key_over_right_schema)] and a residual list. A
    conjunct [a = b] is a key when [a] reads only left columns and [b]
    only right ones (or the reverse), whatever the expressions are: the
    provenance rewrite's never-NULL join-back keys
    [(k IS NULL, coalesce(k, c))] are keys, so those joins hash. *)
val split_equi :
  left_arity:int ->
  Scalar.t option ->
  (Scalar.t * Scalar.t) list * Scalar.t list

(** Lower a logical plan, choosing physical strategies against [catalog]
    statistics and stamping each node with its estimated cardinality. *)
val plan_of_logical : catalog:Catalog.t -> Logical.t -> t

(** Rewrite every scalar of the plan with [f] (the shape cache fills
    literal slots with it); estimates and strategies are kept. *)
val map_scalars : (Scalar.t -> Scalar.t) -> t -> t

(** All audit operators in the plan, pre-order, with their ID column. *)
val audits : t -> (string * int) list

(** Direct children of a node (an index-lookup probe chain counts). *)
val children : t -> t list

(** Output width of a node. *)
val arity : t -> int

(** Physical operator name, e.g. [HashJoin] — used by metrics labels,
    fault-point matching and the EXPLAIN tree. *)
val label : t -> string

val pp : Format.formatter -> t -> unit

(** Tree rendering; every node is suffixed with [(est rows=N)]. *)
val to_string : t -> string

(** Render the tree with a custom per-node annotation (EXPLAIN ANALYZE). *)
val to_string_annotated : annot:(t -> string option) -> t -> string
