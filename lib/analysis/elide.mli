(** Certified audit-probe elision.

    Strips [Audit_probe] nodes whose {!Independence.decision} is
    [Independent] from a physical plan — but only after {e re-checking}
    the attached certificate with {!Certificate.validate}, so a bogus
    analyzer verdict (or a tampered certificate) leaves the probe in
    place. Probes classified [Overlapping] / [Unknown], and probes with
    no decision, are kept. Both execution engines benefit: the row
    engine skips the per-row hash probe, and the compiled engine's
    columnar kernels — which refuse to fuse across audit operators —
    see the plain scan again.

    The returned certificates are exactly those consumed by the rewrite;
    hand them to {!Plan_verify.verify} so the probe-coverage rule can
    accept the now-probeless sensitive scans. *)

module P = Plan.Physical

type result = {
  plan : P.t;  (** the plan with certified-independent probes removed *)
  certificates : Certificate.t list;
      (** one per elided probe, in pre-order *)
  elided : int;  (** probes removed *)
  kept : int;  (** probes retained (overlapping / unknown / invalid cert) *)
}

val apply : decisions:Independence.decision list -> P.t -> result
