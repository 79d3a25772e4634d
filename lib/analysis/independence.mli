(** Per-probe trigger–query independence analysis — the repository's one
    abstract interpreter. Elision and the static FGA baseline
    ([Db.Database.fga_verdict]) both ask it the same placement-aware
    question: {e can this particular audit operator, at its position in
    the physical plan, ever record evidence?} Only the
    predicates enforced {b below} the probe on the path to its covered
    scan restrict the rows that reach it — a leaf probe sits under the
    join constraints a higher probe would benefit from — so the analysis
    runs on the {!Plan.Physical.t} itself, per probe: it abstract-
    interprets the compiled {!Plan.Scalar.t} predicates into per-column
    {!Abstract_domain} values over the covered scan's base schema
    (propagating constraints across equi-join keys, semi-join membership
    and index-lookup equalities), intersects them with the audit
    expression's own abstraction of the sensitive rows, and classifies
    the probe:

    - [Independent] — some column's intersection is [Bot] along every
      path feeding the probe, so no sensitive row can reach it; a
      replayable {!Certificate.t} is attached.
    - [Overlapping] — the analysis traced the probe but found no empty
      intersection; the probe must stay.
    - [Unknown] — the structure defeats the analysis (ID column not
      traceable, set-operation crossing, missing metadata); the probe
      must stay.

    Soundness of the witness column: the intersection on the partition
    column itself is unconditionally sound; any {e other} column may
    witness only when the partition key is the table's primary key
    (recorded in the certificate as [key_unique]), since otherwise two
    different sensitive rows can share an ID.

    The audit side comes from the same machinery: the definition is
    planned (bind, logical optimization, lowering) and the scan walk's
    constraints on its single sensitive scan, over the base schema, are
    what every sensitive row satisfies. A definition that scans the
    sensitive table more than once leaves the side unconstrained; one
    that no longer plans against the catalog makes its probes
    [Unknown]. *)

module AD = Abstract_domain
module P = Plan.Physical

type verdict = Independent | Overlapping | Unknown

val string_of_verdict : verdict -> string

(** What the analysis needs to know about one audit expression, passed
    explicitly so this library stays below [audit_core]. Keep one record
    per audit expression: the expression's audit side is built the first
    time a record is analysed and reused for that same record, until a
    table its definition's plan scans is replaced in the catalog. A side
    that fails to build is not kept, so it is retried on the next
    analysis. *)
type audit_info = {
  name : string;
  sensitive_table : string;
  partition_by : string;
  definition : Sql.Ast.query;
}

(** The verdict for one audit operator in the plan ([probe] is the
    [Audit_probe] node itself, compared by physical identity). *)
type decision = {
  probe : P.t;
  audit_name : string;
  verdict : verdict;
  certificate : Certificate.t option;  (** present iff [Independent] *)
  detail : string;  (** witness / reason, for EXPLAIN *)
}

(** Classify every audit operator in [plan], in pre-order. Certificates
    are numbered 1.. in that order. *)
val analyze_plan :
  catalog:Storage.Catalog.t ->
  audits:audit_info list ->
  P.t ->
  decision list

(** Base-table scans of a plan in canonical pre-order
    ({!P.children} order) — certificate scan ordinals index into this
    sequence, which probe elision leaves unchanged (only interior unary
    nodes are deleted). *)
val scans_preorder : P.t -> P.t list

(** Ordinal of a scan node (by physical identity) in
    [scans_preorder plan]. *)
val scan_ordinal : P.t -> scan:P.t -> int option
