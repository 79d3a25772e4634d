(** Exact offline auditing — Definition 2.3 executed literally.

    A tuple [t] of the sensitive table influences query [Q] iff the result
    of [Q] over [D - t] differs from the result over [D]. We evaluate
    [Q(D - t)] by *virtually* hiding the tuple at scan level
    ({!Exec.Exec_ctx.t.hide}), never mutating the database — the moral
    equivalent of the point-in-time rollback the paper says offline systems
    need.

    Complexity is one query execution per candidate, so this is the ground
    truth for tests and small benchmarks; {!Provenance} is the one-pass
    offline auditor used at benchmark scale. Following the paper's
    architecture (Fig. 1), candidates are typically the auditIDs produced
    by an instrumented plan: since the online heuristics have no false
    negatives, verifying only those IDs is sound. *)

open Storage
open Plan

(* Result multisets are compared order-insensitively: ORDER BY ties and
   hash-iteration order may legitimately differ between runs. *)
let canonical rows = List.sort Tuple.compare rows

let results_equal a b =
  List.length a = List.length b
  && List.for_all2 Tuple.equal (canonical a) (canonical b)

(** [influences ctx ~table ~key_idx ~id plan ~baseline] — does deleting the
    rows of [table] whose column [key_idx] equals [id] change the result?
    With a unique partition key this is Definition 2.3 exactly; with a
    non-unique one it deletes the individual's whole partition, the paper's
    per-individual unit of auditing. *)
let influences ctx ~table ~key_idx ~id plan ~baseline =
  let saved = ctx.Exec.Exec_ctx.hide in
  ctx.Exec.Exec_ctx.hide <- Some (table, key_idx, id);
  Fun.protect
    ~finally:(fun () -> ctx.Exec.Exec_ctx.hide <- saved)
    (fun () ->
      let altered =
        Exec.Executor.run_list ctx
          (Plan.Physical.plan_of_logical ~catalog:ctx.Exec.Exec_ctx.catalog
             (Logical.strip_audits plan))
      in
      not (results_equal baseline altered))

(** Exact accessed set among [candidates] (Definition 2.5, with every column
    of the sensitive table treated as sensitive, as in the paper). *)
let accessed ctx ~(view : Sensitive_view.t) ?candidates (plan : Logical.t) :
    Value.t list =
  let plan = Logical.strip_audits plan in
  let table = view.Sensitive_view.expr.Audit_expr.sensitive_table in
  let key_idx = view.Sensitive_view.key_idx in
  let candidates =
    match candidates with Some c -> c | None -> Sensitive_view.to_list view
  in
  let baseline =
    Exec.Executor.run_list ctx
      (Plan.Physical.plan_of_logical ~catalog:ctx.Exec.Exec_ctx.catalog plan)
  in
  List.filter
    (fun id -> influences ctx ~table ~key_idx ~id plan ~baseline)
    candidates
  |> List.sort Value.compare_total
