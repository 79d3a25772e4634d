(* TPC-H auditing demo — the paper's §V setup in miniature.

   Loads TPC-H, audits all customers of one market segment (≈ 20% of the
   Customer table), and contrasts the three placement heuristics on a join
   query and on TPC-H Q10: audited cardinalities (vs the offline auditor)
   and execution overheads. *)

let () =
  let sf =
    match Sys.getenv_opt "TPCH_SF" with
    | Some s -> float_of_string s
    | None -> 0.005
  in
  let db = Db.Database.create () in
  Printf.printf "loading TPC-H sf=%g...\n%!" sf;
  let sizes = Tpch.Dbgen.load db ~sf in
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  let view = Db.Database.audit_view db "audit_customer" in
  Printf.printf "%d customers, %d in audited segment BUILDING\n\n"
    sizes.Tpch.Dbgen.customers
    (Audit_core.Sensitive_view.cardinality view);

  let ctx = Db.Database.context db in
  let heuristics =
    [
      ("leaf", Audit_core.Placement.Leaf);
      ("hcn", Audit_core.Placement.Hcn);
      ("highest", Audit_core.Placement.Highest);
    ]
  in
  let show (q : Tpch.Queries.query) =
    Printf.printf "=== %s — %s ===\n" q.Tpch.Queries.id
      q.Tpch.Queries.description;
    let base_plan = Db.Database.prepare_sql db ~audits:[] q.Tpch.Queries.sql in
    let base_t =
      Benchkit.Timing.median_time (fun () ->
          ignore (Db.Database.run_plan db base_plan))
    in
    let offline =
      Db.Database.lineage db ~audit:"audit_customer" base_plan.Db.Database.plan
    in
    Printf.printf "  offline accessed IDs: %d\n" (List.length offline);
    List.iter
      (fun (name, h) ->
        let plan =
          Db.Database.prepare_sql db ~audits:[ "audit_customer" ] ~heuristic:h
            q.Tpch.Queries.sql
        in
        let t =
          Benchkit.Timing.median_time (fun () ->
              ignore (Db.Database.run_plan db plan))
        in
        ignore (Db.Database.run_plan db plan);
        let ids =
          Exec.Exec_ctx.accessed_count ctx ~audit_name:"audit_customer"
        in
        Printf.printf "  %-8s auditIDs=%5d  overhead=%+.1f%%\n" name ids
          (Benchkit.Timing.overhead_pct ~base:base_t t))
      heuristics;
    print_newline ()
  in
  show
    {
      Tpch.Queries.id = "micro";
      description = "orders x customer join (§V-A template)";
      sql =
        Tpch.Queries.micro_join ~acctbal:0.0
          ~orderdate:(Tpch.Queries.orderdate_cutoff ~selectivity:0.4);
    };
  show (Tpch.Queries.find "Q10");

  print_endline "instrumented plan for Q10 (hcn):";
  print_string
    (Plan.Logical.to_string
       (Db.Database.plan_sql db ~audits:[ "audit_customer" ]
          ~heuristic:Audit_core.Placement.Hcn
          (Tpch.Queries.find "Q10").Tpch.Queries.sql))
