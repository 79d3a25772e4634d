(** Static-analysis auditing baseline (Oracle Fine Grained Auditing style,
    §VI / Example 6.1): flag a query iff its selection condition on the
    sensitive table can logically intersect the audit expression's
    condition. Instance-independent and sound toward {!May_access}; this
    module provides both the abstract-interpretation analyzer and the
    original weaker baseline it replaced. *)

type verdict = May_access | No_access

val string_of_verdict : verdict -> string

(** Abstract-interpretation analyzer over {!Abstract_domain}: per-column
    intervals / finite sets / LIKE-prefix ranges, meet for conjunction,
    hull-widened join for disjunction, pushed negation, [col ± c]
    normalization, and transitive propagation across top-level equi-join
    columns. [No_access] iff every occurrence of [sensitive_table] in the
    query has some column whose combined query ∧ audit constraint is
    unsatisfiable (set-operation components are analyzed independently;
    subqueries reading the sensitive table conservatively yield
    {!May_access}). [definition] is the audit expression's defining query
    (its WHERE is the audited condition). *)
val analyze :
  Storage.Catalog.t ->
  sensitive_table:string ->
  definition:Sql.Ast.query ->
  Sql.Ast.query ->
  verdict

(** Abstract the audit expression's own selection: for each column of the
    sensitive table (lowercase name), the constraint [definition] places on
    sensitive rows (WHERE plus inner-join ON, propagated across equi-join
    classes). Conservatively all-[Top] (the empty list) when the
    definition does not scan the sensitive table at top level or carries
    set operations. Consumed by {!Independence} to intersect per-probe
    path constraints with the audit side. *)
val audit_env :
  Storage.Catalog.t ->
  sensitive_table:string ->
  definition:Sql.Ast.query ->
  (string * Abstract_domain.t) list

(** The tables whose schemas {!audit_env} resolves columns against: the
    definition's top-level FROM (lowercase). *)
val audit_env_tables : Sql.Ast.query -> string list

(** The pre-abstract-domain analyzer, kept verbatim as the comparison
    baseline: top-level WHERE atoms only, opaque on LIKE, disjunction,
    arithmetic and join-transferred constraints. *)
val analyze_legacy :
  Storage.Catalog.t ->
  sensitive_table:string ->
  definition:Sql.Ast.query ->
  Sql.Ast.query ->
  verdict
