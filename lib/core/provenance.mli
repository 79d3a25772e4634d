(** Why-provenance as a plan rewrite: the one-pass offline auditor, run by
    the same engine as every query. See the implementation header for the
    per-operator rules and for the agreement, over- and
    under-approximation relationships with the exact auditor
    ([Db.Database.exact_accessed]), all of which the test suite asserts. *)

(** [rewrite ~audit p] strips [p]'s audit operators and returns a plan
    whose rows carry every column of [p] followed by one ID column per
    scan of [audit]'s sensitive table: the partition key of the row that
    scan contributed, or NULL. The set of [p]'s rows, projected back to
    its own columns, is unchanged. A plan that reads no sensitive table is
    returned as is (with no ID columns). *)
val rewrite : audit:Audit_expr.t -> Plan.Logical.t -> Plan.Logical.t
