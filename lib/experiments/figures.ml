(** Reproductions of every figure in the paper's evaluation (§V), plus the
    ablations DESIGN.md calls out. Each function prints one titled table;
    the structured rows are also returned so tests can assert on shapes. *)

open Benchkit

let selectivities = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let micro_sql sel =
  Tpch.Queries.micro_join ~acctbal:0.0
    ~orderdate:(Tpch.Queries.orderdate_cutoff ~selectivity:sel)

(* --------------------------------------------------------------- *)
(* Figure 6: micro-benchmark false positives                        *)
(* --------------------------------------------------------------- *)

type fig6_row = {
  f6_selectivity : float;
  f6_offline : int;
  f6_hcn : int;
  f6_leaf : int;
}

let fig6 (env : Setup.env) =
  Report.print_title
    "Figure 6 — Micro-benchmark: false positives (audit cardinality vs \
     orders-predicate selectivity)";
  Report.print_note (Setup.describe env);
  Report.print_note
    "Paper shape: leaf-node cardinality far above offline at low \
     selectivity, converging as selectivity -> 100%; hcn = offline exactly \
     (SJ query, Theorem 3.7).";
  let rows =
    List.map
      (fun sel ->
        let sql = micro_sql sel in
        let offline = Setup.offline_cardinality env sql in
        let hcn =
          Setup.audit_cardinality env
            (Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql)
        in
        let leaf =
          Setup.audit_cardinality env
            (Setup.plan env ~heuristic:Audit_core.Placement.Leaf sql)
        in
        { f6_selectivity = sel; f6_offline = offline; f6_hcn = hcn; f6_leaf = leaf })
      selectivities
  in
  Report.print_table
    ~headers:[ "selectivity"; "offline accessedIDs"; "hcn auditIDs"; "leaf auditIDs" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f%%" (r.f6_selectivity *. 100.0);
           Report.int r.f6_offline;
           Report.int r.f6_hcn;
           Report.int r.f6_leaf;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Figure 7: micro-benchmark overheads vs selectivity               *)
(* --------------------------------------------------------------- *)

type fig7_row = {
  f7_selectivity : float;
  f7_base : float;
  f7_leaf_pct : float;
  f7_hcn_pct : float;
  f7_leaf_probes : int;
  f7_hcn_probes : int;
}

let fig7 (env : Setup.env) =
  Report.print_title
    "Figure 7 — Micro-benchmark: audit overhead (%) vs orders-predicate \
     selectivity";
  Report.print_note
    "Paper shape: audit overheads stay bounded while the query cost grows \
     with selectivity; the paper's leaf-node growth came from persisting \
     false-positive IDs (I/O) in SQL Server's plan — the probe-count \
     columns expose the same driver here (leaf probes the whole Customer \
     table regardless of the join; hcn probes the join output).";
  let rows =
    List.map
      (fun sel ->
        let sql = micro_sql sel in
        let base_p = Setup.plan env sql in
        let leaf_p = Setup.plan env ~heuristic:Audit_core.Placement.Leaf sql in
        let hcn_p = Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql in
        let times = Setup.compare_times env [ base_p; leaf_p; hcn_p ] in
        let base, leaf, hcn =
          match times with
          | [ a; b; c ] -> (a, b, c)
          | _ -> assert false
        in
        let leaf_probes, _ = Setup.probe_stats env leaf_p in
        let hcn_probes, _ = Setup.probe_stats env hcn_p in
        {
          f7_selectivity = sel;
          f7_base = base;
          f7_leaf_pct = Timing.overhead_pct ~base leaf;
          f7_hcn_pct = Timing.overhead_pct ~base hcn;
          f7_leaf_probes = leaf_probes;
          f7_hcn_probes = hcn_probes;
        })
      selectivities
  in
  Report.print_table
    ~headers:
      [
        "selectivity"; "base time"; "leaf overhead"; "hcn overhead";
        "leaf probes"; "hcn probes";
      ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f%%" (r.f7_selectivity *. 100.0);
           Report.secs r.f7_base;
           Report.pct r.f7_leaf_pct;
           Report.pct r.f7_hcn_pct;
           Report.int r.f7_leaf_probes;
           Report.int r.f7_hcn_probes;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Figure 8: hcn overhead vs audit-expression cardinality           *)
(* --------------------------------------------------------------- *)

type fig8_row = { f8_cardinality : int; f8_base : float; f8_hcn_pct : float }

let fig8 (env : Setup.env) =
  Report.print_title
    "Figure 8 — hcn overhead (%) vs audit-expression cardinality (join \
     fixed at the 40% selectivity point)";
  Report.print_note
    "Paper shape: overhead stays small (~2% at one million audited \
     customers) across four orders of magnitude of audit cardinality. The \
     sweep uses audit expressions [c_custkey <= N].";
  let sql = micro_sql 0.4 in
  let ncust = env.Setup.sizes.Tpch.Dbgen.customers in
  let cards =
    List.filter (fun n -> n <= ncust) [ 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]
    @ [ ncust ]
    |> List.sort_uniq Int.compare
  in
  let rows =
    List.map
      (fun n ->
        let name = Printf.sprintf "audit_card_%d" n in
        ignore
          (Db.Database.exec env.Setup.db
             (Printf.sprintf
                "CREATE AUDIT EXPRESSION %s AS SELECT * FROM customer WHERE \
                 c_custkey <= %d FOR SENSITIVE TABLE customer, PARTITION BY \
                 c_custkey"
                name n));
        let p =
          Db.Database.prepare_sql env.Setup.db ~audits:[ name ]
            ~heuristic:Audit_core.Placement.Hcn sql
        in
        let base, t =
          match Setup.compare_times env [ Setup.plan env sql; p ] with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        ignore
          (Db.Database.exec env.Setup.db ("DROP AUDIT EXPRESSION " ^ name));
        {
          f8_cardinality = n;
          f8_base = base;
          f8_hcn_pct = Timing.overhead_pct ~base t;
        })
      cards
  in
  Report.print_table
    ~headers:[ "audit cardinality"; "base time"; "hcn overhead" ]
    (List.map
       (fun r ->
         [
           Report.int r.f8_cardinality;
           Report.secs r.f8_base;
           Report.pct r.f8_hcn_pct;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Figure 9: false positives on the TPC-H customer workload         *)
(* --------------------------------------------------------------- *)

type fig9_row = {
  f9_query : string;
  f9_offline : int;
  f9_hcn : int;
  f9_leaf : int;
}

let fig9 (env : Setup.env) =
  Report.print_title
    "Figure 9 — Complex TPC-H queries: audit cardinality (offline vs hcn \
     vs leaf-node)";
  Report.print_note
    "Paper shape: leaf-node flags (almost) the whole audited segment for \
     every query (TPC-H queries place no predicate on Customer); hcn is \
     close to offline except on the top-k query Q10 (and our Q3, which also \
     carries TOP).";
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let offline = Setup.offline_cardinality env q.Tpch.Queries.sql in
        let hcn =
          Setup.audit_cardinality env
            (Setup.plan env ~heuristic:Audit_core.Placement.Hcn
               q.Tpch.Queries.sql)
        in
        let leaf =
          Setup.audit_cardinality env
            (Setup.plan env ~heuristic:Audit_core.Placement.Leaf
               q.Tpch.Queries.sql)
        in
        { f9_query = q.Tpch.Queries.id; f9_offline = offline; f9_hcn = hcn; f9_leaf = leaf })
      Tpch.Queries.customer_workload
  in
  Report.print_table
    ~headers:[ "query"; "offline accessedIDs"; "hcn auditIDs"; "leaf auditIDs" ]
    (List.map
       (fun r ->
         [ r.f9_query; Report.int r.f9_offline; Report.int r.f9_hcn; Report.int r.f9_leaf ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Figure 10: hcn overheads on the TPC-H customer workload          *)
(* --------------------------------------------------------------- *)

type fig10_row = { f10_query : string; f10_base : float; f10_hcn_pct : float }

let fig10 (env : Setup.env) =
  Report.print_title
    "Figure 10 — Complex TPC-H queries: hcn audit overhead (%)";
  Report.print_note
    "Paper shape: low single-digit overheads (~1%) across the workload, \
     including the cost of forced ID propagation.";
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let base, hcn =
          match
            Setup.compare_times env
              [
                Setup.plan env q.Tpch.Queries.sql;
                Setup.plan env ~heuristic:Audit_core.Placement.Hcn
                  q.Tpch.Queries.sql;
              ]
          with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        {
          f10_query = q.Tpch.Queries.id;
          f10_base = base;
          f10_hcn_pct = Timing.overhead_pct ~base hcn;
        })
      Tpch.Queries.customer_workload
  in
  Report.print_table
    ~headers:[ "query"; "base time"; "hcn overhead" ]
    (List.map
       (fun r -> [ r.f10_query; Report.secs r.f10_base; Report.pct r.f10_hcn_pct ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Ablation: forced ID propagation (§IV-A2)                         *)
(* --------------------------------------------------------------- *)

type idprop_row = { ip_query : string; ip_base : float; ip_idprop_pct : float }

let ablation_idprop (env : Setup.env) =
  Report.print_title
    "Ablation (§IV-A2) — cost of forced ID propagation alone (< 1% in the \
     paper)";
  Report.print_note
    "Plans are instrumented (hcn), then audit operators are stripped after \
     column pruning: what remains is exactly the plan that carries the \
     partition-key columns the audit operator needed, without any probing.";
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let idprop_plan =
          Db.Database.prepare_plan env.Setup.db ~audits:[]
            (Plan.Logical.strip_audits
               (Db.Database.plan_sql env.Setup.db
                  ~audits:[ env.Setup.audit_name ]
                  ~heuristic:Audit_core.Placement.Hcn q.Tpch.Queries.sql))
        in
        let base, t =
          match
            Setup.compare_times env
              [ Setup.plan env q.Tpch.Queries.sql; idprop_plan ]
          with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        {
          ip_query = q.Tpch.Queries.id;
          ip_base = base;
          ip_idprop_pct = Timing.overhead_pct ~base t;
        })
      Tpch.Queries.customer_workload
  in
  Report.print_table
    ~headers:[ "query"; "base time"; "ID-propagation overhead" ]
    (List.map
       (fun r -> [ r.ip_query; Report.secs r.ip_base; Report.pct r.ip_idprop_pct ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Ablation: provenance execution vs audit operator (§III / [6])    *)
(* --------------------------------------------------------------- *)

type prov_row = {
  pr_query : string;
  pr_base : float;
  pr_hcn_pct : float;
  pr_lineage_factor : float;  (** lineage time / base time *)
}

let ablation_provenance (env : Setup.env) =
  Report.print_title
    "Ablation (§III) — annotation-propagating provenance vs the audit \
     operator";
  Report.print_note
    "Paper context: full provenance computation costs up to 5x on TPC-H \
     [6], which is why SELECT triggers use the no-op audit operator \
     instead. Columns: hcn overhead (%) vs lineage slowdown (x).";
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let base_p = Setup.plan env q.Tpch.Queries.sql in
        let hcn_p =
          Setup.plan env ~heuristic:Audit_core.Placement.Hcn
            q.Tpch.Queries.sql
        in
        let run p () = ignore (Db.Database.run_plan_count env.Setup.db p) in
        let lineage () =
          ignore
            (Db.Database.lineage env.Setup.db ~audit:env.Setup.audit_name
               base_p.Db.Database.plan)
        in
        let base, hcn, lineage_t =
          match
            Timing.compare_thunks ~warmup:env.Setup.cfg.warmup
              ~repeats:env.Setup.cfg.repeats
              [ run base_p; run hcn_p; lineage ]
          with
          | [ a; b; c ] -> (a, b, c)
          | _ -> assert false
        in
        {
          pr_query = q.Tpch.Queries.id;
          pr_base = base;
          pr_hcn_pct = Timing.overhead_pct ~base hcn;
          pr_lineage_factor = lineage_t /. base;
        })
      Tpch.Queries.customer_workload
  in
  Report.print_table
    ~headers:[ "query"; "base time"; "hcn overhead"; "lineage slowdown" ]
    (List.map
       (fun r ->
         [
           r.pr_query;
           Report.secs r.pr_base;
           Report.pct r.pr_hcn_pct;
           Printf.sprintf "%.2fx" r.pr_lineage_factor;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Ablation: several audit expressions at once (§III-C2)            *)
(* --------------------------------------------------------------- *)

type multi_row = { mu_count : int; mu_base : float; mu_pct : float }

let ablation_multi (env : Setup.env) =
  Report.print_title
    "Ablation (§III-C2) — several audit expressions instrumenting one query";
  Report.print_note
    "The paper notes placement generalizes to multiple simultaneous audit \
     expressions; each adds one audit operator (here: one per market \
     segment, all on Customer), so overhead should grow roughly linearly \
     with a small slope.";
  let sql = micro_sql 0.4 in
  let segments = Tpch.Tpch_schema.market_segments in
  let names =
    Array.to_list
      (Array.map (fun s -> "audit_multi_" ^ String.lowercase_ascii s) segments)
  in
  List.iteri
    (fun i name ->
      ignore
        (Db.Database.exec env.Setup.db
           (Tpch.Queries.audit_segment ~name ~segment:segments.(i) ())))
    names;
  let rows =
    List.map
      (fun k ->
        let audits = List.filteri (fun i _ -> i < k) names in
        let p =
          Db.Database.prepare_sql env.Setup.db ~audits
            ~heuristic:Audit_core.Placement.Hcn sql
        in
        let base, t =
          match Setup.compare_times env [ Setup.plan env sql; p ] with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        { mu_count = k; mu_base = base; mu_pct = Timing.overhead_pct ~base t })
      [ 0; 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun name ->
      ignore (Db.Database.exec env.Setup.db ("DROP AUDIT EXPRESSION " ^ name)))
    names;
  Report.print_table
    ~headers:[ "audit expressions"; "base time"; "hcn overhead" ]
    (List.map
       (fun r -> [ Report.int r.mu_count; Report.secs r.mu_base; Report.pct r.mu_pct ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Ablation: static analysis baseline (§VI / Example 6.1)           *)
(* --------------------------------------------------------------- *)

(* The hcn audit operator's ACCESSED cardinality for [q] against
   [audit_name]: the execution-based ground truth. *)
let hcn_accessed (env : Setup.env) ~audit_name (q : Tpch.Queries.query) =
  ignore
    (Db.Database.run_plan_count env.Setup.db
       (Db.Database.prepare_sql env.Setup.db ~audits:[ audit_name ]
          ~heuristic:Audit_core.Placement.Hcn q.Tpch.Queries.sql));
  Exec.Exec_ctx.accessed_count (Db.Database.context env.Setup.db) ~audit_name

type static_row = {
  st_query : string;
  st_verdict : Db.Database.fga_verdict;
  st_offline : int;
  st_hcn : int;
}

let ablation_static (env : Setup.env) =
  Report.print_title
    "Ablation (§VI) — static analysis (Oracle FGA style) vs execution-based \
     auditing";
  Report.print_note
    "Paper claim: predicate-intersection static analysis flags almost \
     every evaluation query (no customer predicate => cannot rule out \
     intersection); only Q3, which constrains c_mktsegment to a concrete \
     segment, can be decided statically. The audit expression below uses \
     segment FURNITURE so Q3's BUILDING predicate is disjoint.";
  let audit_name = "audit_static_demo" in
  ignore
    (Db.Database.exec env.Setup.db
       (Tpch.Queries.audit_segment ~name:audit_name ~segment:"FURNITURE" ()));
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let verdict =
          Db.Database.fga_verdict env.Setup.db ~audit:audit_name
            (Sql.Parser.query q.Tpch.Queries.sql)
        in
        let offline =
          List.length
            (Db.Database.lineage env.Setup.db ~audit:audit_name
               (Db.Database.plan_sql env.Setup.db ~audits:[] q.Tpch.Queries.sql))
        in
        let hcn = hcn_accessed env ~audit_name q in
        { st_query = q.Tpch.Queries.id; st_verdict = verdict; st_offline = offline; st_hcn = hcn })
      Tpch.Queries.customer_workload
  in
  ignore (Db.Database.exec env.Setup.db ("DROP AUDIT EXPRESSION " ^ audit_name));
  Report.print_table
    ~headers:[ "query"; "static verdict"; "offline accessedIDs"; "hcn auditIDs" ]
    (List.map
       (fun r ->
         [
           r.st_query;
           Db.Database.string_of_fga_verdict r.st_verdict;
           Report.int r.st_offline;
           Report.int r.st_hcn;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* FGA precision: plan-based analysis vs the legacy baseline       *)
(* --------------------------------------------------------------- *)

(** Verdicts of the pre-abstract-domain FGA analyzer on
    {!Tpch.Queries.fga_workload}, recorded at commit 711fe82, the last
    revision that carried it. It read top-level WHERE atoms only, so LIKE,
    disjunction, arithmetic and equi-join transfer each defeated it. Its
    verdicts depend on the schema alone, so they hold at every scale
    factor. *)
let fga_legacy_verdicts : (string * Db.Database.fga_verdict) list =
  Db.Database.
    [
      ("FP1", May_access);
      ("FP2", May_access);
      ("FP3", May_access);
      ("FP4", May_access);
      ("TN1", No_access);
      ("TP1", May_access);
      ("TP2", May_access);
      ("TP3", May_access);
    ]

type fga_row = {
  fga_query : string;
  fga_desc : string;
  fga_legacy : Db.Database.fga_verdict;  (** from {!fga_legacy_verdicts} *)
  fga_abstract : Db.Database.fga_verdict;  (** {!Db.Database.fga_verdict} *)
  fga_truth : int;  (** hcn audit-operator ACCESSED cardinality *)
}

let fga_precision (env : Setup.env) =
  Report.print_title
    "FGA precision (§VI) — plan-based abstract interpretation vs the \
     legacy predicate-intersection baseline";
  Report.print_note
    "Each probe query's ground truth is the hcn audit operator's ACCESSED \
     cardinality against the BUILDING-segment audit expression. The FP* \
     queries cannot access an audited customer but each defeated the legacy \
     analyzer a different way (LIKE prefix, disjunction, arithmetic, \
     equi-join transfer; its verdicts are recorded); the analysis of the \
     hcn-instrumented plan must clear all four while never returning \
     NO-ACCESS on a query that truly accesses rows.";
  let audit_name = "audit_fga_demo" in
  ignore
    (Db.Database.exec env.Setup.db
       (Tpch.Queries.audit_segment ~name:audit_name ()));
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let abstract =
          Db.Database.fga_verdict env.Setup.db ~audit:audit_name
            (Sql.Parser.query q.Tpch.Queries.sql)
        in
        let truth = hcn_accessed env ~audit_name q in
        {
          fga_query = q.Tpch.Queries.id;
          fga_desc = q.Tpch.Queries.description;
          fga_legacy = List.assoc q.Tpch.Queries.id fga_legacy_verdicts;
          fga_abstract = abstract;
          fga_truth = truth;
        })
      Tpch.Queries.fga_workload
  in
  ignore (Db.Database.exec env.Setup.db ("DROP AUDIT EXPRESSION " ^ audit_name));
  Report.print_table
    ~headers:[ "query"; "legacy verdict"; "abstract verdict"; "hcn auditIDs" ]
    (List.map
       (fun r ->
         [
           r.fga_query;
           Db.Database.string_of_fga_verdict r.fga_legacy;
           Db.Database.string_of_fga_verdict r.fga_abstract;
           Report.int r.fga_truth;
         ])
       rows);
  rows

(* --------------------------------------------------------------- *)
(* Certified probe elision: overhead collapse on independent queries *)
(* --------------------------------------------------------------- *)

type elision_row = {
  el_query : string;
  el_desc : string;
  el_verdict : string;  (** combined probe verdicts for the query *)
  el_probes_before : int;
  el_probes_after : int;
  el_t_plain : float;
  el_t_kept : float;  (** instrumented, probes in place *)
  el_t_elided : float;  (** instrumented, certified probes stripped *)
  el_certs_valid : bool;  (** every consumed certificate replays *)
  el_sound : bool;  (** elided ≡ kept: same rows, same ACCESSED evidence *)
}

let el_overhead_kept r =
  Timing.overhead_pct ~base:r.el_t_plain r.el_t_kept

let el_overhead_elided r =
  Timing.overhead_pct ~base:r.el_t_plain r.el_t_elided

let count_probes phys =
  let n = ref 0 in
  let rec go (p : Plan.Physical.t) =
    (match p.Plan.Physical.op with
    | Plan.Physical.Audit_probe _ -> incr n
    | _ -> ());
    List.iter go (Plan.Physical.children p)
  in
  go phys;
  !n

(** The elision benchmark proper: every FGA-workload probe query, timed
    three ways (uninstrumented / instrumented / instrumented-then-elided)
    plus the mutation soundness check that elision changed nothing
    observable. The FP*/TN1 queries are provably independent of the
    BUILDING-segment audit and must collapse to ~plain cost; TP1-TP3
    genuinely overlap and must keep their probes. *)
let elision (env : Setup.env) =
  Report.print_title
    "Certified probe elision — audit overhead on provably-independent \
     queries";
  Report.print_note (Setup.describe env);
  Report.print_note
    "Queries whose every probe is certified Independent execute the plain \
     plan; their audit overhead must collapse to ~0%. Overlapping queries \
     keep their probes and their evidence. 'sound' checks the elided run \
     byte-for-byte (rows and ACCESSED) against the instrumented one.";
  let db = env.Setup.db in
  let ctx = Db.Database.context db in
  (* Each instrumented arm is prepared in its own elision mode: under
     [Elide_certified], [prepare] runs the independence analysis and
     strips the probes whose certificates replay. *)
  let instrumented mode sql =
    Db.Database.set_elision_mode db mode;
    Setup.plan env ~heuristic:Audit_core.Placement.Hcn sql
  in
  let mode = Db.Database.elision_mode db in
  Fun.protect ~finally:(fun () -> Db.Database.set_elision_mode db mode)
  @@ fun () ->
  let rows =
    List.map
      (fun (q : Tpch.Queries.query) ->
        let sql = q.Tpch.Queries.sql in
        let plain = Setup.plan env sql in
        let kept = instrumented Db.Database.Elide_off sql in
        let elided = instrumented Db.Database.Elide_certified sql in
        let certs_valid =
          List.for_all
            (fun c -> Analysis.Certificate.validate c = Ok ())
            elided.Db.Database.certificates
        in
        let verdict =
          match Lazy.force elided.Db.Database.decisions with
          | [] -> "none"
          | ds ->
            List.map
              (fun d ->
                Analysis.Independence.string_of_verdict
                  d.Analysis.Independence.verdict)
              ds
            |> List.sort_uniq compare |> String.concat "+"
        in
        (* Mutation check: the elided plan must be observationally
           identical to the instrumented one. *)
        let observe p =
          let out = List.sort compare (Db.Database.run_plan db p) in
          let acc =
            Exec.Exec_ctx.accessed_list ctx
              ~audit_name:env.Setup.audit_name
          in
          (out, List.sort compare acc)
        in
        let sound = observe kept = observe elided in
        let t_plain, t_kept, t_elided =
          match Setup.compare_times env [ plain; kept; elided ] with
          | [ a; b; c ] -> (a, b, c)
          | _ -> assert false
        in
        {
          el_query = q.Tpch.Queries.id;
          el_desc = q.Tpch.Queries.description;
          el_verdict = verdict;
          el_probes_before = count_probes kept.Db.Database.phys;
          el_probes_after = count_probes elided.Db.Database.phys;
          el_t_plain = t_plain;
          el_t_kept = t_kept;
          el_t_elided = t_elided;
          el_certs_valid = certs_valid;
          el_sound = sound;
        })
      Tpch.Queries.fga_workload
  in
  Report.print_table
    ~headers:
      [
        "query"; "verdict"; "probes"; "plain"; "kept"; "elided";
        "ovh kept"; "ovh elided"; "sound";
      ]
    (List.map
       (fun r ->
         [
           r.el_query;
           r.el_verdict;
           Printf.sprintf "%d->%d" r.el_probes_before r.el_probes_after;
           Report.secs r.el_t_plain;
           Report.secs r.el_t_kept;
           Report.secs r.el_t_elided;
           Report.pct (el_overhead_kept r);
           Report.pct (el_overhead_elided r);
           (if r.el_sound then "yes" else "NO");
         ])
       rows);
  rows
