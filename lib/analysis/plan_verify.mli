(** Plan-invariant verifier: statically certifies, on a finished physical
    (or logical) plan, that the optimizer preserved the auditing semantics
    of §III — independently of how placement and lowering were
    implemented. Violations are typed and carry a path to the offending
    node. *)

type rule =
  | Coverage
      (** every scan of a sensitive table is dominated by an audit operator
          for that audit expression *)
  | Probe_in_chain
      (** no audit operator inside an index-nested-loop lookup chain *)
  | Commute_path
      (** every operator between an audit operator and its scan commutes
          with the audit per the §III relation *)
  | Id_provenance
      (** the audit operator's ID column traces to the partition key of a
          scan of its sensitive table (forced ID propagation, §IV-A2) *)
  | Schema_wf
      (** arities consistent; expressions reference only live columns *)
  | Est_rows  (** every node carries a finite, non-negative row estimate *)

val all_rules : rule list
val rule_name : rule -> string
val rule_doc : rule -> string

type violation = { rule : rule; path : string; detail : string }

val string_of_violation : violation -> string

(** What the verifier needs to know about an audit expression (plain
    strings, so this library does not depend on the audit core). *)
type audit_spec = { name : string; sensitive_table : string; partition_by : string }

(** The commute relation audit operators are checked against; mirrors the
    placement heuristics' commute sets. *)
type commute = {
  filter : bool;
  join_left : bool;
  join_right : bool;
  loj_left : bool;
  loj_right : bool;
  semi_left : bool;
  apply_outer : bool;
  sort : bool;
  limit : bool;
  project : bool;
}

val leaf_commute : commute

(** The hcn relation (Claim 3.6 / Theorem 3.7) — the default. Plans built
    by the leaf heuristic also verify under it (their probes sit lower). *)
val hcn_commute : commute

(** The highest-node relation, which additionally commutes [Limit] and the
    null-padded side of outer joins — verifying against it only certifies
    position consistency, not freedom from false negatives (Example 3.2). *)
val highest_commute : commute

(** Check every rule on a physical plan. [audits] lists the audit
    expressions the plan is expected to be instrumented for; an empty list
    still checks well-formedness, chain and provenance rules.
    [certificates] are elision certificates ({!Elide.apply}): a sensitive
    scan with no dominating probe passes the coverage rule iff a
    certificate for that (audit, scan) pair is attached {e and} replays
    under {!Certificate.validate} — Strict mode therefore still proves
    no-false-negatives end-to-end on elided plans. *)
val verify :
  ?commute:commute ->
  ?certificates:Certificate.t list ->
  audits:audit_spec list ->
  Plan.Physical.t ->
  violation list

(** Coverage, Commute_path and Id_provenance on the logical tree before
    lowering — the same rule code {!verify} runs, over the logical IR's
    adapter, with no certificates. The lowering rules (Probe_in_chain,
    Schema_wf, Est_rows) are physical-only. *)
val verify_logical :
  ?commute:commute -> audits:audit_spec list -> Plan.Logical.t -> violation list

(** Rule-by-rule report: one PASS line per clean rule, one line per
    violation, and a summary line. *)
val report : violation list -> string
