(** EXPLAIN ANALYZE rendering: the physical plan tree annotated per
    operator with the planner's estimated rows next to the actual row
    counts, loop counts and inclusive wall time, followed by a query-level
    summary. Audit operators additionally show their probe and hit
    counters, so the no-filtering invariant (input rows = output rows =
    probes, §IV-A2) is directly visible in the output. *)

let annot (m : Metrics.t) (node : Plan.Physical.t) : string option =
  let est = Printf.sprintf "est rows=%.0f" node.Plan.Physical.est in
  match Metrics.find m node with
  | None -> Some (Printf.sprintf "(%s, never executed)" est)
  | Some s ->
    let audit =
      if s.Metrics.probes > 0 then
        Printf.sprintf " probes=%d hits=%d" s.Metrics.probes s.Metrics.hits
      else ""
    in
    if s.Metrics.opens = 0 then
      if s.Metrics.rows = 0 && s.Metrics.probes = 0 then
        Some (Printf.sprintf "(%s, never executed)" est)
      else
        (* Folded into an index-nested-loop lookup: row counts are
           attributed, time stays on the enclosing join. *)
        Some
          (Printf.sprintf "(%s actual rows=%d%s)" est s.Metrics.rows audit)
    else
      Some
        (Printf.sprintf "(%s actual rows=%d loops=%d time=%.3fms%s)" est
           s.Metrics.rows s.Metrics.opens
           (s.Metrics.time_s *. 1000.0)
           audit)

(** Render the annotated tree plus summary for the metrics collected by the
    last run of [plan] under [ctx]. *)
let render (ctx : Exec_ctx.t) (plan : Plan.Physical.t) : string =
  let m = ctx.Exec_ctx.metrics in
  let tree = Plan.Physical.to_string_annotated ~annot:(annot m) plan in
  let probes, hits = Metrics.audit_totals m in
  Printf.sprintf
    "%sExecution time: %.3f ms\n\
     Rows scanned: %d, audit probes: %d, audit hits: %d\n"
    tree
    (Metrics.total_time_s m *. 1000.0)
    ctx.Exec_ctx.rows_scanned probes hits
