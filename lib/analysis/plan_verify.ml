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

    Violations come back as a typed list with a path to the offending
    node; the caller decides whether to warn or to refuse the plan. *)

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
(* Physical-plan helpers                                               *)
(* ------------------------------------------------------------------ *)

let norm = String.lowercase_ascii

(* A node path like "Limit/HashJoin.l/Filter/SeqScan(customer)". *)
let ( /: ) path seg = if path = "" then seg else path ^ "/" ^ seg

(* The edges a provenance trace can descend, annotated with the commute
   flag that must hold for an audit operator to sit above that edge. *)
let edge_commute (c : commute) (p : Physical.t) ~(to_chain : bool)
    ~(to_right : bool) : bool option =
  (* [None] = edge is always fine (no commute constraint); [Some b] = the
     audit operator commutes with this node iff [b]. *)
  match p.Physical.op with
  | Physical.Seq_scan _ -> None
  | Physical.Audit_probe _ -> None (* a probe is a no-op *)
  | Physical.Filter _ -> Some c.filter
  | Physical.Project _ -> Some c.project
  | Physical.Sort _ -> Some c.sort
  | Physical.Limit _ -> Some c.limit
  | Physical.Top_k _ -> Some (c.sort && c.limit)
  | Physical.Distinct _ -> Some false
  | Physical.Hash_agg _ -> Some false
  | Physical.Set_op _ -> Some false
  | Physical.Hash_join { kind; _ } | Physical.Nl_join { kind; _ } -> (
    match kind with
    | Logical.J_inner -> Some (if to_right then c.join_right else c.join_left)
    | Logical.J_left -> Some (if to_right then c.loj_right else c.loj_left))
  | Physical.Index_nl_join { kind; _ } -> (
    (* From above, the lookup chain is just the join's right input; probes
       *inside* the chain are the probe-in-chain rule, not this one. *)
    match kind with
    | Logical.J_inner -> Some (if to_chain then c.join_right else c.join_left)
    | Logical.J_left -> Some (if to_chain then c.loj_right else c.loj_left))
  | Physical.Hash_semi_join _ -> Some c.semi_left
  | Physical.Apply _ -> Some c.apply_outer

(* Trace output column [col] of [p] down to the base scan it came from.
   Returns the scan node itself (compared by physical identity), its path,
   table, base-schema column index, and the list of (node, to_chain,
   to_right) edges crossed on the way (excluding the scan). [None] when the
   column is computed (aggregate, scalar apply, non-column projection). *)
type traced = {
  scan : Physical.t;
  spath : string;
  table : string;
  base : int;
  edges : (Physical.t * bool * bool) list;
}

let rec trace (path : string) (p : Physical.t) (col : int) : traced option =
  let via ?(to_chain = false) ?(to_right = false) seg child col' =
    match trace (path /: seg) child col' with
    | Some t -> Some { t with edges = (p, to_chain, to_right) :: t.edges }
    | None -> None
  in
  match p.Physical.op with
  | Physical.Seq_scan { table; schema; cols; _ } ->
    let base = match cols with None -> col | Some idxs -> idxs.(col) in
    if base >= 0 && base < Schema.arity schema then
      Some
        {
          scan = p;
          spath = path /: Printf.sprintf "SeqScan(%s)" table;
          table = norm table;
          base;
          edges = [];
        }
    else None
  | Physical.Filter { child; _ } -> via "Filter" child col
  | Physical.Sort { child; _ } -> via "Sort" child col
  | Physical.Limit { child; _ } -> via "Limit" child col
  | Physical.Top_k { child; _ } -> via "TopK" child col
  | Physical.Distinct child -> via "Distinct" child col
  | Physical.Audit_probe { child; _ } -> via "AuditProbe" child col
  | Physical.Project { cols; child } -> (
    match List.nth_opt cols col with
    | Some (Scalar.Col i, _) -> via "Project" child i
    | _ -> None)
  | Physical.Hash_join { left; right; _ } ->
    let la = Physical.arity left in
    if col < la then via "HashJoin.l" left col
    else via ~to_right:true "HashJoin.r" right (col - la)
  | Physical.Nl_join { left; right; _ } ->
    let la = Physical.arity left in
    if col < la then via "NLJoin.l" left col
    else via ~to_right:true "NLJoin.r" right (col - la)
  | Physical.Index_nl_join { left; chain; _ } ->
    let la = Physical.arity left in
    if col < la then via "IndexNLJoin.l" left col
    else via ~to_chain:true "IndexNLJoin.chain" chain (col - la)
  | Physical.Hash_semi_join { left; _ } -> via "SemiJoin.l" left col
  | Physical.Apply { outer; _ } ->
    if col < Physical.arity outer then via "Apply.outer" outer col else None
  | Physical.Hash_agg { keys; child; _ } -> (
    match List.nth_opt keys col with
    | Some (Scalar.Col i, _) -> via "HashAgg" child i
    | _ -> None)
  | Physical.Set_op { left; _ } -> via "SetOp.l" left col

(* ------------------------------------------------------------------ *)
(* The physical verifier                                               *)
(* ------------------------------------------------------------------ *)

let partition_index schema partition_by =
  match Schema.find_all schema partition_by with i :: _ -> Some i | [] -> None

let verify ?(commute = hcn_commute) ?(certificates = [])
    ~(audits : audit_spec list) (plan : Physical.t) : violation list =
  let violations = ref [] in
  let add rule path detail = violations := { rule; path; detail } :: !violations in
  (* Collected during the walk: every base scan and every probe, with the
     subtree under the probe (for provenance) and its path. *)
  let scans = ref [] (* (path, table, schema, node) *) in
  let probes = ref [] (* (path, name, id_col, node) *) in
  let rec walk ~in_chain path (p : Physical.t) =
    let label = Physical.label p in
    let here = path /: label in
    (* Est_rows *)
    let est = p.Physical.est in
    if not (Float.is_finite est) then
      add Est_rows here (Printf.sprintf "estimate is %f" est)
    else if est < 0. then
      add Est_rows here (Printf.sprintf "negative estimate %f" est);
    (* Schema_wf: expression liveness + arity bookkeeping per node. *)
    let check_exprs what arity exprs =
      List.iter
        (fun e ->
          List.iter
            (fun i ->
              if i < 0 || i >= arity then
                add Schema_wf here
                  (Printf.sprintf "%s references column %d outside arity %d"
                     what i arity))
            (Scalar.free_cols e))
        exprs
    in
    (match p.Physical.op with
    | Physical.Seq_scan { schema; cols; _ } -> (
      match cols with
      | None -> ()
      | Some idxs ->
        Array.iter
          (fun i ->
            if i < 0 || i >= Schema.arity schema then
              add Schema_wf here
                (Printf.sprintf "scan projection index %d outside schema" i))
          idxs)
    | Physical.Filter { pred; child } ->
      check_exprs "filter predicate" (Physical.arity child) [ pred ]
    | Physical.Project { cols; child } ->
      check_exprs "projection" (Physical.arity child) (List.map fst cols)
    | Physical.Hash_join { lkeys; rkeys; residual; left; right; right_arity; _ } ->
      let la = Physical.arity left and ra = Physical.arity right in
      if right_arity <> ra then
        add Schema_wf here
          (Printf.sprintf "recorded right arity %d <> subtree arity %d"
             right_arity ra);
      check_exprs "left key" la (Array.to_list lkeys);
      check_exprs "right key" ra (Array.to_list rkeys);
      check_exprs "residual" (la + ra) (Option.to_list residual)
    | Physical.Nl_join { pred; left; right; right_arity; _ } ->
      let la = Physical.arity left and ra = Physical.arity right in
      if right_arity <> ra then
        add Schema_wf here
          (Printf.sprintf "recorded right arity %d <> subtree arity %d"
             right_arity ra);
      check_exprs "join predicate" (la + ra) (Option.to_list pred)
    | Physical.Index_nl_join { left; left_key; chain; residual; right_arity; _ }
      ->
      let la = Physical.arity left and ca = Physical.arity chain in
      if right_arity <> ca then
        add Schema_wf here
          (Printf.sprintf "recorded right arity %d <> chain arity %d"
             right_arity ca);
      check_exprs "lookup key" la [ left_key ];
      check_exprs "residual" (la + ca) (Option.to_list residual)
    | Physical.Hash_semi_join { left; left_key; right; right_key; _ } ->
      check_exprs "left key" (Physical.arity left) [ left_key ];
      check_exprs "right key" (Physical.arity right) [ right_key ]
    | Physical.Apply _ -> ()
    | Physical.Hash_agg { keys; aggs; child } ->
      let a = Physical.arity child in
      check_exprs "group key" a (List.map fst keys);
      check_exprs "aggregate argument" a
        (List.filter_map (fun (g : Logical.agg) -> g.Logical.arg) aggs)
    | Physical.Sort { keys; child } | Physical.Top_k { keys; child; _ } ->
      check_exprs "sort key" (Physical.arity child) (List.map fst keys)
    | Physical.Limit _ | Physical.Distinct _ -> ()
    | Physical.Audit_probe { id_col; child; _ } ->
      let a = Physical.arity child in
      if id_col < 0 || id_col >= a then
        add Schema_wf here
          (Printf.sprintf "audit ID column %d outside arity %d" id_col a)
    | Physical.Set_op { left; right; _ } ->
      let la = Physical.arity left and ra = Physical.arity right in
      if la <> ra then
        add Schema_wf here
          (Printf.sprintf "set-operation branch arities differ (%d vs %d)" la
             ra));
    (* Collect scans and probes. *)
    (match p.Physical.op with
    | Physical.Seq_scan { table; schema; _ } ->
      scans := (here, norm table, schema, p) :: !scans
    | Physical.Audit_probe { audit_name; id_col; _ } ->
      if in_chain then
        add Probe_in_chain here
          (Printf.sprintf "audit operator %s inside an index lookup chain"
             audit_name);
      probes := (here, audit_name, id_col, p) :: !probes
    | _ -> ());
    (* Recurse. *)
    let step seg child = walk ~in_chain (here /: seg) child in
    match p.Physical.op with
    | Physical.Seq_scan _ -> ()
    | Physical.Filter { child; _ }
    | Physical.Project { child; _ }
    | Physical.Sort { child; _ }
    | Physical.Top_k { child; _ }
    | Physical.Limit { child; _ }
    | Physical.Audit_probe { child; _ }
    | Physical.Hash_agg { child; _ } ->
      walk ~in_chain here child
    | Physical.Distinct child -> walk ~in_chain here child
    | Physical.Hash_join { left; right; _ } | Physical.Nl_join { left; right; _ }
      ->
      step "l" left;
      step "r" right
    | Physical.Index_nl_join { left; chain; _ } ->
      step "l" left;
      walk ~in_chain:true (here /: "chain") chain
    | Physical.Hash_semi_join { left; right; _ } ->
      step "l" left;
      step "r" right
    | Physical.Apply { outer; inner; _ } ->
      step "outer" outer;
      step "inner" inner
    | Physical.Set_op { left; right; _ } ->
      step "l" left;
      step "r" right
  in
  walk ~in_chain:false "" plan;
  let specs_by_name n =
    List.find_opt (fun s -> norm s.name = norm n) audits
  in
  (* Id_provenance + Commute_path, per probe. *)
  let covered = ref [] (* (scan node, audit name), nodes by identity *) in
  List.iter
    (fun (ppath, name, id_col, (node : Physical.t)) ->
      let child =
        match node.Physical.op with
        | Physical.Audit_probe { child; _ } -> child
        | _ -> assert false
      in
      match trace ppath child id_col with
      | None ->
        add Id_provenance ppath
          (Printf.sprintf
             "ID column %d of audit operator %s does not trace to a base \
              column"
             id_col name)
      | Some { scan; spath; table; base; edges } -> (
        (* Commute_path: every edge crossed must commute. *)
        List.iter
          (fun ((n : Physical.t), to_chain, to_right) ->
            match edge_commute commute n ~to_chain ~to_right with
            | Some false ->
              add Commute_path ppath
                (Printf.sprintf
                   "audit operator %s sits above non-commuting %s on the \
                    path to %s"
                   name (Physical.label n) spath)
            | _ -> ())
          edges;
        match specs_by_name name with
        | None -> () (* unknown audit: provenance to a base column suffices *)
        | Some spec ->
          if norm spec.sensitive_table <> table then
            add Id_provenance ppath
              (Printf.sprintf
                 "audit operator %s observes table %s, expected %s" name table
                 spec.sensitive_table)
          else (
            match scan.Physical.op with
            | Physical.Seq_scan { schema; _ } -> (
              match partition_index schema spec.partition_by with
              | Some want when want = base ->
                covered := (scan, norm name) :: !covered
              | Some want ->
                add Id_provenance ppath
                  (Printf.sprintf
                     "ID column traces to %s column %d, partition key %s is \
                      column %d"
                     table base spec.partition_by want)
              | None ->
                add Id_provenance ppath
                  (Printf.sprintf "partition key %s not in schema of %s"
                     spec.partition_by table))
            | _ -> ())))
    !probes;
  (* Coverage: every sensitive scan carries a well-traced probe — or a
     valid elision certificate naming exactly this scan. The scan is
     matched by its pre-order ordinal (stable under probe elision), the
     certificate is re-validated here so a tampered or mis-targeted one
     never silences the rule. *)
  let certified node table spec =
    match Independence.scan_ordinal plan ~scan:node with
    | None -> false
    | Some ord ->
      let alias =
        match node.Physical.op with
        | Physical.Seq_scan { alias; _ } -> alias
        | _ -> ""
      in
      List.exists
        (fun (c : Certificate.t) ->
          norm c.Certificate.audit_name = norm spec.name
          && norm c.Certificate.scan_table = table
          && c.Certificate.scan_alias = alias
          && c.Certificate.scan_ordinal = ord
          && Certificate.validate c = Ok ())
        certificates
  in
  List.iter
    (fun (spath, table, _schema, node) ->
      List.iter
        (fun spec ->
          if
            norm spec.sensitive_table = table
            && (not
                  (List.exists
                     (fun (s, n) -> s == node && n = norm spec.name)
                     !covered))
            && not (certified node table spec)
          then
            add Coverage spath
              (Printf.sprintf
                 "scan of sensitive table %s is not dominated by an audit \
                  operator for %s"
                 table spec.name))
        audits)
    !scans;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Logical-plan verifier (pre-lowering): Coverage / Commute_path /      *)
(* Id_provenance on the logical operators. Implemented by re-using the  *)
(* physical machinery on a loss-free logical embedding is not possible  *)
(* (strategies are not chosen yet), so a direct walk mirrors the rules. *)
(* ------------------------------------------------------------------ *)

type ltraced = {
  lscan : Logical.t;
  lspath : string;
  ltable : string;
  lbase : int;
  ledges : (Logical.t * bool) list;
}

let rec ltrace (path : string) (p : Logical.t) (col : int) : ltraced option =
  let via ?(to_right = false) seg child col' =
    match ltrace (path /: seg) child col' with
    | Some t -> Some { t with ledges = (p, to_right) :: t.ledges }
    | None -> None
  in
  match p with
  | Logical.Scan { table; schema; cols; _ } ->
    let base = match cols with None -> col | Some idxs -> idxs.(col) in
    if base >= 0 && base < Schema.arity schema then
      Some
        {
          lscan = p;
          lspath = path /: Printf.sprintf "Scan(%s)" table;
          ltable = norm table;
          lbase = base;
          ledges = [];
        }
    else None
  | Logical.Filter { child; _ } -> via "Filter" child col
  | Logical.Sort { child; _ } -> via "Sort" child col
  | Logical.Limit { child; _ } -> via "Limit" child col
  | Logical.Distinct child -> via "Distinct" child col
  | Logical.Audit { child; _ } -> via "Audit" child col
  | Logical.Project { cols; child } -> (
    match List.nth_opt cols col with
    | Some (Scalar.Col i, _) -> via "Project" child i
    | _ -> None)
  | Logical.Join { left; right; _ } ->
    let la = Logical.arity left in
    if col < la then via "Join.l" left col
    else via ~to_right:true "Join.r" right (col - la)
  | Logical.Semi_join { left; _ } -> via "SemiJoin.l" left col
  | Logical.Apply { outer; _ } ->
    if col < Logical.arity outer then via "Apply.outer" outer col else None
  | Logical.Group_by { keys; child; _ } -> (
    match List.nth_opt keys col with
    | Some (Scalar.Col i, _) -> via "GroupBy" child i
    | _ -> None)
  | Logical.Set_op { left; _ } -> via "SetOp.l" left col

let ledge_commute (c : commute) (p : Logical.t) ~(to_right : bool) =
  match p with
  | Logical.Scan _ | Logical.Audit _ -> None
  | Logical.Filter _ -> Some c.filter
  | Logical.Project _ -> Some c.project
  | Logical.Sort _ -> Some c.sort
  | Logical.Limit _ -> Some c.limit
  | Logical.Distinct _ -> Some false
  | Logical.Group_by _ -> Some false
  | Logical.Set_op _ -> Some false
  | Logical.Join { kind = Logical.J_inner; _ } ->
    Some (if to_right then c.join_right else c.join_left)
  | Logical.Join { kind = Logical.J_left; _ } ->
    Some (if to_right then c.loj_right else c.loj_left)
  | Logical.Semi_join _ -> Some c.semi_left
  | Logical.Apply _ -> Some c.apply_outer

let verify_logical ?(commute = hcn_commute) ~(audits : audit_spec list)
    (plan : Logical.t) : violation list =
  let violations = ref [] in
  let add rule path detail = violations := { rule; path; detail } :: !violations in
  let scans = ref [] and probes = ref [] in
  let rec walk path (p : Logical.t) =
    let seg =
      match p with
      | Logical.Scan { table; _ } -> Printf.sprintf "Scan(%s)" table
      | Logical.Filter _ -> "Filter"
      | Logical.Project _ -> "Project"
      | Logical.Join _ -> "Join"
      | Logical.Semi_join _ -> "SemiJoin"
      | Logical.Apply _ -> "Apply"
      | Logical.Group_by _ -> "GroupBy"
      | Logical.Sort _ -> "Sort"
      | Logical.Limit _ -> "Limit"
      | Logical.Distinct _ -> "Distinct"
      | Logical.Audit _ -> "Audit"
      | Logical.Set_op _ -> "SetOp"
    in
    let here = path /: seg in
    (match p with
    | Logical.Scan { table; schema; _ } ->
      scans := (here, norm table, schema, p) :: !scans
    | Logical.Audit { audit_name; id_col; child } ->
      probes := (here, audit_name, id_col, child) :: !probes
    | _ -> ());
    match p with
    | Logical.Scan _ -> ()
    | Logical.Filter { child; _ }
    | Logical.Project { child; _ }
    | Logical.Group_by { child; _ }
    | Logical.Sort { child; _ }
    | Logical.Limit { child; _ }
    | Logical.Audit { child; _ } ->
      walk here child
    | Logical.Distinct c -> walk here c
    | Logical.Join { left; right; _ } | Logical.Set_op { left; right; _ } ->
      walk (here /: "l") left;
      walk (here /: "r") right
    | Logical.Semi_join { left; right; _ } ->
      walk (here /: "l") left;
      walk (here /: "r") right
    | Logical.Apply { outer; inner; _ } ->
      walk (here /: "outer") outer;
      walk (here /: "inner") inner
  in
  walk "" plan;
  let covered = ref [] in
  List.iter
    (fun (ppath, name, id_col, child) ->
      match ltrace ppath child id_col with
      | None ->
        add Id_provenance ppath
          (Printf.sprintf
             "ID column %d of audit operator %s does not trace to a base \
              column"
             id_col name)
      | Some { lscan; lspath; ltable; lbase; ledges } -> (
        List.iter
          (fun (n, to_right) ->
            match ledge_commute commute n ~to_right with
            | Some false ->
              add Commute_path ppath
                (Printf.sprintf
                   "audit operator %s sits above a non-commuting operator on \
                    the path to %s"
                   name lspath)
            | _ -> ())
          ledges;
        match
          List.find_opt
            (fun s -> norm s.name = norm name)
            audits
        with
        | None -> ()
        | Some spec ->
          if norm spec.sensitive_table <> ltable then
            add Id_provenance ppath
              (Printf.sprintf "audit operator %s observes table %s, expected %s"
                 name ltable spec.sensitive_table)
          else (
            match lscan with
            | Logical.Scan { schema; _ } -> (
              match partition_index schema spec.partition_by with
              | Some want when want = lbase ->
                covered := (lscan, norm name) :: !covered
              | Some want ->
                add Id_provenance ppath
                  (Printf.sprintf
                     "ID column traces to %s column %d, partition key %s is \
                      column %d"
                     ltable lbase spec.partition_by want)
              | None ->
                add Id_provenance ppath
                  (Printf.sprintf "partition key %s not in schema of %s"
                     spec.partition_by ltable))
            | _ -> ())))
    !probes;
  List.iter
    (fun (spath, table, _schema, node) ->
      List.iter
        (fun spec ->
          if
            norm spec.sensitive_table = table
            && not
                 (List.exists
                    (fun (s, n) -> s == node && n = norm spec.name)
                    !covered)
          then
            add Coverage spath
              (Printf.sprintf
                 "scan of sensitive table %s is not dominated by an audit \
                  operator for %s"
                 table spec.name))
        audits)
    !scans;
  List.rev !violations

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
