(** Plan-invariant verifier.

    The paper's central guarantee — an audited SELECT never produces a
    false negative (§III, Claim 3.6) — holds only if the optimized plan
    actually routes every access to a sensitive table through an audit
    operator at a position the commutativity argument covers. This pass
    re-checks that property on the finished {!Plan.Physical.t} (and on the
    {!Plan.Logical.t} before lowering), independently of how placement and
    lowering were implemented, against a typed rule catalog:

    - {b Coverage} — every base-table access to a sensitive table is
      dominated by an audit operator for that audit expression whose ID
      column traces back to that scan's partition key.
    - {b Probe_in_chain} — no audit operator inside an index-nested-loop
      lookup chain: rows fetched through an index probe are a function of
      the physical join strategy, so a probe there would make the audit
      answer depend on plan choice (this re-proves the lowering guard).
    - {b Commute_path} — every operator strictly between an audit operator
      and the scan it covers commutes with the audit per §III (the
      commute set is a parameter; defaults to the hcn relation used by
      Claim 3.6).
    - {b Id_provenance} — the audit operator's ID column is the sensitive
      table's partition key, positionally traced through projections,
      joins and chains down to the base scan (forced ID propagation,
      §IV-A2, actually held).
    - {b Schema_wf} — arity bookkeeping is consistent: compiled
      expressions reference only live input columns, recorded right-side
      arities match the subtree, set-operation branches agree.
    - {b Est_rows} — every node carries a finite, non-negative
      cardinality estimate.

    Coverage, Commute_path and Id_provenance are written once, over a
    small adapter per IR (labels, inputs, scans, probes and one trace
    step); the other three are physical-only lowering rules. Violations
    come back as a typed list with a path to the offending node; the
    caller decides whether to warn or to refuse the plan. *)

open Storage
open Plan

type rule =
  | Coverage
  | Probe_in_chain
  | Commute_path
  | Id_provenance
  | Schema_wf
  | Est_rows

let all_rules =
  [ Coverage; Probe_in_chain; Commute_path; Id_provenance; Schema_wf; Est_rows ]

let rule_name = function
  | Coverage -> "coverage"
  | Probe_in_chain -> "probe-in-chain"
  | Commute_path -> "commute-path"
  | Id_provenance -> "id-provenance"
  | Schema_wf -> "schema-wf"
  | Est_rows -> "est-rows"

let rule_doc = function
  | Coverage ->
    "every scan of a sensitive table is dominated by an audit operator for \
     that audit expression"
  | Probe_in_chain ->
    "no audit operator inside an index-nested-loop lookup chain (audit \
     cardinality must not depend on join strategy)"
  | Commute_path ->
    "every operator between an audit operator and its scan commutes with \
     the audit per the §III relation"
  | Id_provenance ->
    "each audit operator's ID column traces to the partition key of a scan \
     of its sensitive table"
  | Schema_wf ->
    "arities are consistent and expressions reference only live input \
     columns"
  | Est_rows -> "every node carries a finite, non-negative row estimate"

type violation = { rule : rule; path : string; detail : string }

let string_of_violation v =
  Printf.sprintf "[%s] at %s: %s" (rule_name v.rule) v.path v.detail

type audit_spec = { name : string; sensitive_table : string; partition_by : string }

(* Mirror of Placement.commute_spec (duplicated here so the verifier stays
   independent of the placement implementation it checks). *)
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

let leaf_commute =
  {
    filter = true;
    join_left = false;
    join_right = false;
    loj_left = false;
    loj_right = false;
    semi_left = false;
    apply_outer = false;
    sort = false;
    limit = false;
    project = false;
  }

let hcn_commute =
  {
    leaf_commute with
    join_left = true;
    join_right = true;
    loj_left = true;
    semi_left = true;
    apply_outer = true;
    sort = true;
    project = true;
  }

let highest_commute = { hcn_commute with loj_right = true; limit = true }

(* ------------------------------------------------------------------ *)
(* One adapter per IR                                                  *)
(* ------------------------------------------------------------------ *)

let norm = String.lowercase_ascii

let ( /: ) path seg =
  if seg = "" then path else if path = "" then seg else path ^ "/" ^ seg

(* Where output column [i] of a node comes from: base column [b] of the
   node itself (a scan), column [col] of the input reached through path
   segment [seg], or nothing the rules can follow (a computed column).
   [commutes] says whether an audit operator may sit above the node on
   that edge. *)
type 'n source =
  | Base of int
  | Input of { seg : string; input : 'n; col : int; commutes : bool }
  | Computed

(* What the audit rules need of an IR. [inputs] pairs each input with its
   path segment ("" continues the node's own path); [scan] gives a base
   scan's table and full schema; [probe] an audit operator's name and ID
   column; [step] one trace step under a commute relation. *)
type 'n ir = {
  label : 'n -> string;
  inputs : 'n -> (string * 'n) list;
  scan : 'n -> (string * Schema.t) option;
  probe : 'n -> (string * int) option;
  step : commute -> 'n -> int -> 'n source;
}

let via ?(seg = "") input col commutes = Input { seg; input; col; commutes }

(* A projected scan's output column [col] in the table's schema. *)
let scan_base cols col =
  match cols with
  | None -> col
  | Some idxs -> if col < Array.length idxs then idxs.(col) else -1

(* Output column [col] of a join: the left input's columns, then the
   right's (an index join's lookup chain is its right input). *)
let join_source c kind ~arity ~right_seg left right col =
  let la = arity left in
  match kind with
  | Logical.J_inner when col < la -> via ~seg:"l" left col c.join_left
  | Logical.J_left when col < la -> via ~seg:"l" left col c.loj_left
  | Logical.J_inner -> via ~seg:right_seg right (col - la) c.join_right
  | Logical.J_left -> via ~seg:right_seg right (col - la) c.loj_right

(* A grouping or projection list: column [col] is followed only when it
   is a bare input column. *)
let keyed keys col commutes child =
  match List.nth_opt keys col with
  | Some (Scalar.Col i, _) -> via child i commutes
  | _ -> Computed

let physical : Physical.t ir =
  let open Physical in
  {
    label;
    inputs =
      (fun p ->
        match p.op with
        | Seq_scan _ -> []
        | Filter { child; _ }
        | Project { child; _ }
        | Hash_agg { child; _ }
        | Sort { child; _ }
        | Top_k { child; _ }
        | Limit { child; _ }
        | Audit_probe { child; _ }
        | Distinct child ->
          [ ("", child) ]
        | Hash_join { left; right; _ }
        | Nl_join { left; right; _ }
        | Hash_semi_join { left; right; _ }
        | Set_op { left; right; _ } ->
          [ ("l", left); ("r", right) ]
        | Index_nl_join { left; chain; _ } -> [ ("l", left); ("chain", chain) ]
        | Apply { outer; inner; _ } -> [ ("outer", outer); ("inner", inner) ]);
    scan =
      (fun p ->
        match p.op with
        | Seq_scan { table; schema; _ } -> Some (table, schema)
        | _ -> None);
    probe =
      (fun p ->
        match p.op with
        | Audit_probe { audit_name; id_col; _ } -> Some (audit_name, id_col)
        | _ -> None);
    step =
      (fun c p col ->
        match p.op with
        | Seq_scan { cols; _ } -> Base (scan_base cols col)
        | Filter { child; _ } -> via child col c.filter
        | Project { cols; child } -> keyed cols col c.project child
        | Sort { child; _ } -> via child col c.sort
        | Limit { child; _ } -> via child col c.limit
        | Top_k { child; _ } -> via child col (c.sort && c.limit)
        | Distinct child -> via child col false
        | Audit_probe { child; _ } -> via child col true (* a probe is a no-op *)
        | Hash_agg { keys; child; _ } -> keyed keys col false child
        | Set_op { left; _ } -> via ~seg:"l" left col false
        | Hash_join { kind; left; right; _ } | Nl_join { kind; left; right; _ } ->
          join_source c kind ~arity ~right_seg:"r" left right col
        | Index_nl_join { kind; left; chain; _ } ->
          join_source c kind ~arity ~right_seg:"chain" left chain col
        | Hash_semi_join { left; _ } -> via ~seg:"l" left col c.semi_left
        | Apply { outer; _ } ->
          if col < arity outer then via ~seg:"outer" outer col c.apply_outer
          else Computed);
  }

let logical : Logical.t ir =
  let open Logical in
  {
    label =
      (function
      | Scan { table; _ } -> Printf.sprintf "Scan(%s)" table
      | Filter _ -> "Filter"
      | Project _ -> "Project"
      | Join _ -> "Join"
      | Semi_join _ -> "SemiJoin"
      | Apply _ -> "Apply"
      | Group_by _ -> "GroupBy"
      | Sort _ -> "Sort"
      | Limit _ -> "Limit"
      | Distinct _ -> "Distinct"
      | Audit _ -> "Audit"
      | Set_op _ -> "SetOp");
    inputs =
      (function
      | Scan _ -> []
      | Filter { child; _ }
      | Project { child; _ }
      | Group_by { child; _ }
      | Sort { child; _ }
      | Limit { child; _ }
      | Audit { child; _ }
      | Distinct child ->
        [ ("", child) ]
      | Join { left; right; _ }
      | Semi_join { left; right; _ }
      | Set_op { left; right; _ } ->
        [ ("l", left); ("r", right) ]
      | Apply { outer; inner; _ } -> [ ("outer", outer); ("inner", inner) ]);
    scan =
      (function Scan { table; schema; _ } -> Some (table, schema) | _ -> None);
    probe =
      (function
      | Audit { audit_name; id_col; _ } -> Some (audit_name, id_col) | _ -> None);
    step =
      (fun c p col ->
        match p with
        | Scan { cols; _ } -> Base (scan_base cols col)
        | Filter { child; _ } -> via child col c.filter
        | Project { cols; child } -> keyed cols col c.project child
        | Sort { child; _ } -> via child col c.sort
        | Limit { child; _ } -> via child col c.limit
        | Distinct child -> via child col false
        | Audit { child; _ } -> via child col true
        | Group_by { keys; child; _ } -> keyed keys col false child
        | Set_op { left; _ } -> via ~seg:"l" left col false
        | Join { kind; left; right; _ } ->
          join_source c kind ~arity ~right_seg:"r" left right col
        | Semi_join { left; _ } -> via ~seg:"l" left col c.semi_left
        | Apply { outer; _ } ->
          if col < arity outer then via ~seg:"outer" outer col c.apply_outer
          else Computed);
  }

(* ------------------------------------------------------------------ *)
(* Coverage, Commute_path and Id_provenance, for any IR                *)
(* ------------------------------------------------------------------ *)

(* A node's path, innermost first: each node with the input segment that
   led to it. Rendered only when a violation names it, as each node's
   label with the segment before it: "Limit 2/HashJoin/l/SeqScan t". *)
let render ir path =
  List.fold_right (fun (seg, n) acc -> acc /: seg /: ir.label n) path ""

(* Pre-order: [f] sees each node with its path. *)
let rec walk ir f path n =
  f path n;
  List.iter (fun (seg, c) -> walk ir f ((seg, c) :: path) c) (ir.inputs n)

(* Column [col] of [n] (at [path]) traced down to the base scan it
   came from, with the labels of the non-commuting nodes crossed on the
   way, top-down. [None] when the column is computed. *)
type 'n traced = {
  scan : 'n;
  spath : (string * 'n) list;
  table : string;
  schema : Schema.t;
  base : int;
  blocked : string list;
}

let rec trace ir c path n col =
  match if col < 0 then Computed else ir.step c n col with
  | Computed -> None
  | Base base -> (
    match ir.scan n with
    | Some (table, schema) when base >= 0 && base < Schema.arity schema ->
      Some { scan = n; spath = path; table = norm table; schema; base; blocked = [] }
    | _ -> None)
  | Input { seg; input; col; commutes } ->
    Option.map
      (fun t -> if commutes then t else { t with blocked = ir.label n :: t.blocked })
      (trace ir c ((seg, input) :: path) input col)

let partition_index schema partition_by =
  match Schema.find_all schema partition_by with i :: _ -> Some i | [] -> None

(* The three audit rules on [plan]. [exempt scan spec] is a sensitive
   scan's other way to pass Coverage (a valid elision certificate). *)
let audit_rules ir ~commute ~exempt ~audits add plan =
  let add rule path detail = add rule (render ir path) detail in
  let scans = ref [] and probes = ref [] in
  walk ir
    (fun path n ->
      Option.iter (fun (t, _) -> scans := (path, norm t, n) :: !scans) (ir.scan n);
      Option.iter (fun (a, i) -> probes := (path, a, i, n) :: !probes) (ir.probe n))
    [ ("", plan) ] plan;
  let covered = ref [] (* (scan node, audit name), nodes by identity *) in
  List.iter
    (fun (ppath, name, id_col, n) ->
      match trace ir commute ppath n id_col with
      | None ->
        add Id_provenance ppath
          (Printf.sprintf
             "ID column %d of audit operator %s does not trace to a base \
              column"
             id_col name)
      | Some t -> (
        List.iter
          (fun label ->
            add Commute_path ppath
              (Printf.sprintf
                 "audit operator %s sits above non-commuting %s on the path \
                  to %s"
                 name label (render ir t.spath)))
          t.blocked;
        match List.find_opt (fun s -> norm s.name = norm name) audits with
        | None -> () (* unknown audit: provenance to a base column suffices *)
        | Some spec when norm spec.sensitive_table <> t.table ->
          add Id_provenance ppath
            (Printf.sprintf "audit operator %s observes table %s, expected %s"
               name t.table spec.sensitive_table)
        | Some spec -> (
          match partition_index t.schema spec.partition_by with
          | Some want when want = t.base -> covered := (t.scan, norm name) :: !covered
          | Some want ->
            add Id_provenance ppath
              (Printf.sprintf
                 "ID column traces to %s column %d, partition key %s is column \
                  %d"
                 t.table t.base spec.partition_by want)
          | None ->
            add Id_provenance ppath
              (Printf.sprintf "partition key %s not in schema of %s"
                 spec.partition_by t.table))))
    !probes;
  List.iter
    (fun (spath, table, n) ->
      List.iter
        (fun spec ->
          if
            norm spec.sensitive_table = table
            && (not (List.exists (fun (s, a) -> s == n && a = norm spec.name) !covered))
            && not (exempt n spec)
          then
            add Coverage spath
              (Printf.sprintf
                 "scan of sensitive table %s is not dominated by an audit \
                  operator for %s"
                 table spec.name))
        audits)
    !scans

let collect f =
  let vs = ref [] in
  f (fun rule path detail -> vs := { rule; path; detail } :: !vs);
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* The verifiers                                                       *)
(* ------------------------------------------------------------------ *)

(* The physical-only lowering rules: Est_rows, Schema_wf, Probe_in_chain. *)
let rec lowering report ~in_chain path (p : Physical.t) =
  let add rule detail = report rule (render physical path) detail in
  let est = p.Physical.est in
  if not (Float.is_finite est) then
    add Est_rows (Printf.sprintf "estimate is %f" est)
  else if est < 0. then
    add Est_rows (Printf.sprintf "negative estimate %f" est);
  let check_exprs what arity exprs =
    List.iter
      (fun e ->
        List.iter
          (fun i ->
            if i < 0 || i >= arity then
              add Schema_wf
                (Printf.sprintf "%s references column %d outside arity %d" what
                   i arity))
          (Scalar.free_cols e))
      exprs
  in
  let check_right_arity what recorded actual =
    if recorded <> actual then
      add Schema_wf
        (Printf.sprintf "recorded right arity %d <> %s arity %d" recorded what
           actual)
  in
  (match p.Physical.op with
  | Physical.Seq_scan { schema; cols; _ } ->
    Option.iter
      (Array.iter (fun i ->
           if i < 0 || i >= Schema.arity schema then
             add Schema_wf
               (Printf.sprintf "scan projection index %d outside schema" i)))
      cols
  | Physical.Filter { pred; child } ->
    check_exprs "filter predicate" (Physical.arity child) [ pred ]
  | Physical.Project { cols; child } ->
    check_exprs "projection" (Physical.arity child) (List.map fst cols)
  | Physical.Hash_join { lkeys; rkeys; residual; left; right; right_arity; _ } ->
    let la = Physical.arity left and ra = Physical.arity right in
    check_right_arity "subtree" right_arity ra;
    check_exprs "left key" la (Array.to_list lkeys);
    check_exprs "right key" ra (Array.to_list rkeys);
    check_exprs "residual" (la + ra) (Option.to_list residual)
  | Physical.Nl_join { pred; left; right; right_arity; _ } ->
    let la = Physical.arity left and ra = Physical.arity right in
    check_right_arity "subtree" right_arity ra;
    check_exprs "join predicate" (la + ra) (Option.to_list pred)
  | Physical.Index_nl_join { left; left_key; chain; residual; right_arity; _ } ->
    let la = Physical.arity left and ca = Physical.arity chain in
    check_right_arity "chain" right_arity ca;
    check_exprs "lookup key" la [ left_key ];
    check_exprs "residual" (la + ca) (Option.to_list residual)
  | Physical.Hash_semi_join { left; left_key; right; right_key; _ } ->
    check_exprs "left key" (Physical.arity left) [ left_key ];
    check_exprs "right key" (Physical.arity right) [ right_key ]
  | Physical.Apply _ | Physical.Limit _ | Physical.Distinct _ -> ()
  | Physical.Hash_agg { keys; aggs; child } ->
    let a = Physical.arity child in
    check_exprs "group key" a (List.map fst keys);
    check_exprs "aggregate argument" a
      (List.filter_map (fun (g : Logical.agg) -> g.Logical.arg) aggs)
  | Physical.Sort { keys; child } | Physical.Top_k { keys; child; _ } ->
    check_exprs "sort key" (Physical.arity child) (List.map fst keys)
  | Physical.Audit_probe { audit_name; id_col; child } ->
    let a = Physical.arity child in
    if id_col < 0 || id_col >= a then
      add Schema_wf
        (Printf.sprintf "audit ID column %d outside arity %d" id_col a);
    if in_chain then
      add Probe_in_chain
        (Printf.sprintf "audit operator %s inside an index lookup chain"
           audit_name)
  | Physical.Set_op { left; right; _ } ->
    let la = Physical.arity left and ra = Physical.arity right in
    if la <> ra then
      add Schema_wf
        (Printf.sprintf "set-operation branch arities differ (%d vs %d)" la ra));
  List.iter
    (fun (seg, c) ->
      lowering report ~in_chain:(in_chain || seg = "chain") ((seg, c) :: path) c)
    (physical.inputs p)

(* A sensitive scan with no dominating probe passes Coverage when a
   certificate names exactly this scan — matched by its pre-order ordinal,
   which probe elision leaves stable — and replays, so a tampered or
   mis-targeted certificate never silences the rule. *)
let certified certificates plan (scan : Physical.t) spec =
  match scan.Physical.op with
  | Physical.Seq_scan { table; alias; _ } when certificates <> [] -> (
    match Independence.scan_ordinal plan ~scan with
    | None -> false
    | Some ord ->
      List.exists
        (fun (c : Certificate.t) ->
          norm c.Certificate.audit_name = norm spec.name
          && norm c.Certificate.scan_table = norm table
          && c.Certificate.scan_alias = alias
          && c.Certificate.scan_ordinal = ord
          && Certificate.validate c = Ok ())
        certificates)
  | _ -> false

let verify ?(commute = hcn_commute) ?(certificates = [])
    ~(audits : audit_spec list) (plan : Physical.t) : violation list =
  collect (fun add ->
      lowering add ~in_chain:false [ ("", plan) ] plan;
      audit_rules physical ~commute ~exempt:(certified certificates plan) ~audits
        add plan)

let verify_logical ?(commute = hcn_commute) ~(audits : audit_spec list)
    (plan : Logical.t) : violation list =
  collect (fun add ->
      audit_rules logical ~commute ~exempt:(fun _ _ -> false) ~audits add plan)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** Rule-by-rule report: PASS / the violations under each rule. *)
let report (vs : violation list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun rule ->
      let mine = List.filter (fun v -> v.rule = rule) vs in
      if mine = [] then
        Buffer.add_string b (Printf.sprintf "  %-14s PASS\n" (rule_name rule))
      else
        List.iter
          (fun v ->
            Buffer.add_string b
              (Printf.sprintf "  %-14s VIOLATION %s: %s\n" (rule_name v.rule)
                 v.path v.detail))
          mine)
    all_rules;
  Buffer.add_string b
    (if vs = [] then "  plan verified: all rules hold\n"
     else Printf.sprintf "  %d violation(s)\n" (List.length vs));
  Buffer.contents b
