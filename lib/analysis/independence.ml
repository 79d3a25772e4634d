(** Per-probe trigger–query independence on the physical plan. See the
    interface for the soundness argument: compiled {!Plan.Scalar.t}
    predicates are abstracted with positional columns, and a
    scan-to-probe walk projects every constraint back onto the covered
    scan's base schema. The same walk over the audit definition's own
    plan yields the audit side. *)

open Storage
module AD = Abstract_domain
module P = Plan.Physical
module Scalar = Plan.Scalar
module Logical = Plan.Logical

type verdict = Independent | Overlapping | Unknown

let string_of_verdict = function
  | Independent -> "Independent"
  | Overlapping -> "Overlapping"
  | Unknown -> "Unknown"

type audit_info = {
  name : string;
  sensitive_table : string;
  partition_by : string;
  definition : Sql.Ast.query;
}

type decision = {
  probe : P.t;
  audit_name : string;
  verdict : verdict;
  certificate : Certificate.t option;
  detail : string;
}

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Scalar predicate abstraction                                       *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

(* Column index -> abstract value; absent = Top. *)
type env = AD.t Imap.t

let env_meet : env -> env -> env =
  Imap.union (fun _ a b -> Some (AD.meet a b))

(* Disjunction: a column is constrained only if both branches constrain it. *)
let env_or (a : env) (b : env) : env =
  Imap.merge
    (fun _ x y ->
      match (x, y) with Some a, Some b -> Some (AD.join a b) | _ -> None)
    a b

(* The value of a closed subtree, by the evaluator that runs it. *)
let const_of (e : Scalar.t) : Value.t option =
  match Plan.Optimizer.fold_scalar e with Scalar.Const v -> Some v | _ -> None

(* [col_side e = Some (i, inv)] means  e cmp k ⟺ Col i cmp (inv k) —
   integer shifts only: adding an integer constant is injective and
   order-preserving, so every comparison transfers unchanged. *)
let rec col_side (e : Scalar.t) : (int * (Value.t -> Value.t option)) option =
  let shift op a b =
    match (col_side a, const_of b) with
    | Some (i, inv), Some (Value.Int _ as c) ->
      Some
        ( i,
          fun v ->
            match inv v with
            | Some v' -> ( try Some (op v' c) with Value.Type_error _ -> None)
            | None -> None )
    | _ -> None
  in
  match e with
  | Scalar.Col i -> Some (i, fun v -> Some v)
  | Scalar.Binop (Sql.Ast.Add, a, b) -> (
    match shift Value.sub a b with
    | Some r -> Some r
    | None -> shift Value.sub b a)
  | Scalar.Binop (Sql.Ast.Sub, a, b) -> shift Value.add a b
  | _ -> None

let flip_cmp = function
  | Sql.Ast.Lt -> Sql.Ast.Gt
  | Sql.Ast.Le -> Sql.Ast.Ge
  | Sql.Ast.Gt -> Sql.Ast.Lt
  | Sql.Ast.Ge -> Sql.Ast.Le
  | op -> op

let negate_cmp = function
  | Sql.Ast.Eq -> Some Sql.Ast.Neq
  | Sql.Ast.Neq -> Some Sql.Ast.Eq
  | Sql.Ast.Lt -> Some Sql.Ast.Ge
  | Sql.Ast.Le -> Some Sql.Ast.Gt
  | Sql.Ast.Gt -> Some Sql.Ast.Le
  | Sql.Ast.Ge -> Some Sql.Ast.Lt
  | _ -> None

let domain_of_cmp op v =
  match op with
  | Sql.Ast.Eq -> AD.eq v
  | Sql.Ast.Neq -> AD.neq v
  | Sql.Ast.Lt -> AD.lt v
  | Sql.Ast.Le -> AD.le v
  | Sql.Ast.Gt -> AD.gt v
  | Sql.Ast.Ge -> AD.ge v
  | _ -> AD.Top

let like_domain pat =
  let has_wild s = String.exists (fun ch -> ch = '%' || ch = '_') s in
  if not (has_wild pat) then AD.eq (Value.Str pat)
  else
    let n = String.length pat in
    if n > 0 && pat.[n - 1] = '%' && not (has_wild (String.sub pat 0 (n - 1)))
    then AD.prefix (String.sub pat 0 (n - 1))
    else AD.Top

let singleton i d : env = if d = AD.Top then Imap.empty else Imap.singleton i d

(* Rows surviving [p] under 3VL satisfy the returned env (every
   uninterpretable shape maps to the empty env = Top — sound). *)
let rec eval_pred (p : Scalar.t) : env =
  match p with
  | Scalar.Binop (Sql.Ast.And, a, b) -> env_meet (eval_pred a) (eval_pred b)
  | Scalar.Binop (Sql.Ast.Or, a, b) -> env_or (eval_pred a) (eval_pred b)
  | Scalar.Not a -> eval_neg a
  | Scalar.Binop
      (((Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge) as op),
       a, b) -> (
    match (col_side a, const_of b) with
    | Some (i, inv), Some k -> (
      match inv k with Some k' -> singleton i (domain_of_cmp op k') | None -> Imap.empty)
    | _ -> (
      match (const_of a, col_side b) with
      | Some k, Some (i, inv) -> (
        match inv k with
        | Some k' -> singleton i (domain_of_cmp (flip_cmp op) k')
        | None -> Imap.empty)
      | _ -> Imap.empty))
  | Scalar.In_list (e, vs, false) -> (
    match col_side e with
    | Some (i, inv) ->
      let inverted = Array.to_list vs |> List.map inv in
      if List.for_all Option.is_some inverted then
        singleton i (AD.fin (List.filter_map Fun.id inverted))
      else Imap.empty
    | None -> Imap.empty)
  | Scalar.In_list (e, vs, true) -> (
    match col_side e with
    | Some (i, inv) ->
      (* NOT IN: conjunction of ≠; non-invertible members just drop out. *)
      Array.fold_left
        (fun acc v ->
          match inv v with
          | Some v' -> env_meet acc (singleton i (AD.neq v'))
          | None -> acc)
        Imap.empty vs
    | None -> Imap.empty)
  | Scalar.Is_null (Scalar.Col i, negated) ->
    singleton i (if negated then AD.neq Value.Null else AD.eq Value.Null)
  | Scalar.Like (Scalar.Col i, Scalar.Const (Value.Str pat), false) ->
    singleton i (like_domain pat)
  | _ -> Imap.empty

and eval_neg (p : Scalar.t) : env =
  match p with
  | Scalar.Not a -> eval_pred a
  | Scalar.Binop (Sql.Ast.And, a, b) -> env_or (eval_neg a) (eval_neg b)
  | Scalar.Binop (Sql.Ast.Or, a, b) -> env_meet (eval_neg a) (eval_neg b)
  | Scalar.Binop (op, a, b) -> (
    match negate_cmp op with
    | Some op' -> eval_pred (Scalar.Binop (op', a, b))
    | None -> Imap.empty)
  | Scalar.In_list (e, vs, n) -> eval_pred (Scalar.In_list (e, vs, not n))
  | Scalar.Is_null (e, n) -> eval_pred (Scalar.Is_null (e, not n))
  | _ -> Imap.empty

(* ------------------------------------------------------------------ *)
(* Compositional per-output-column constraints                          *)
(* ------------------------------------------------------------------ *)

let safe (a : AD.t array) i = if i >= 0 && i < Array.length a then a.(i) else AD.Top

let meet_into (a : AD.t array) i d =
  if i >= 0 && i < Array.length a then a.(i) <- AD.meet a.(i) d

let apply_env (a : AD.t array) (env : env) = Imap.iter (meet_into a) env

(* Column-to-column equality conjuncts of a compiled predicate. *)
let equalities (pred : Scalar.t option) : (int * int) list =
  match pred with
  | None -> []
  | Some p ->
    List.filter_map
      (function
        | Scalar.Binop (Sql.Ast.Eq, Scalar.Col a, Scalar.Col b) -> Some (a, b)
        | _ -> None)
      (Scalar.conjuncts p)

(* Constraints guaranteed to hold on every output row of [p]. *)
let rec out_env (p : P.t) : AD.t array =
  match p.P.op with
  | P.Seq_scan _ -> Array.make (P.arity p) AD.Top
  | P.Filter { pred; child } ->
    let e = Array.copy (out_env child) in
    apply_env e (eval_pred pred);
    List.iter
      (fun (a, b) ->
        let d = AD.meet (safe e a) (safe e b) in
        meet_into e a d;
        meet_into e b d)
      (equalities (Some pred));
    e
  | P.Project { cols; child } ->
    let ce = out_env child in
    Array.of_list
      (List.map
         (fun (s, _) ->
           match s with
           | Scalar.Col i -> safe ce i
           | Scalar.Const v -> AD.eq v
           | _ -> AD.Top)
         cols)
  | P.Hash_join { kind; lkeys; rkeys; residual; left; right; right_arity; _ }
    -> (
    let le = out_env left in
    match kind with
    | Logical.J_left -> Array.append le (Array.make right_arity AD.Top)
    | Logical.J_inner ->
      let re = out_env right in
      let la = Array.length le in
      let comb = Array.append le re in
      Array.iteri
        (fun i lk ->
          match (lk, rkeys.(i)) with
          | Scalar.Col a, Scalar.Col b ->
            let d = AD.meet (safe comb a) (safe comb (la + b)) in
            meet_into comb a d;
            meet_into comb (la + b) d
          | _ -> ())
        lkeys;
      Option.iter (fun r -> apply_env comb (eval_pred r)) residual;
      comb)
  | P.Nl_join { kind; pred; left; right; right_arity; _ } -> (
    let le = out_env left in
    match kind with
    | Logical.J_left -> Array.append le (Array.make right_arity AD.Top)
    | Logical.J_inner ->
      let comb = Array.append le (out_env right) in
      Option.iter (fun r -> apply_env comb (eval_pred r)) pred;
      List.iter
        (fun (a, b) ->
          let d = AD.meet (safe comb a) (safe comb b) in
          meet_into comb a d;
          meet_into comb b d)
        (equalities pred);
      comb)
  | P.Index_nl_join { kind; left; chain; residual; right_arity; _ } -> (
    let le = out_env left in
    match kind with
    | Logical.J_left -> Array.append le (Array.make right_arity AD.Top)
    | Logical.J_inner ->
      let comb = Array.append le (out_env chain) in
      Option.iter (fun r -> apply_env comb (eval_pred r)) residual;
      comb)
  | P.Hash_semi_join { anti; left; left_key; right; right_key } ->
    let le = Array.copy (out_env left) in
    (if not anti then
       match (left_key, right_key) with
       | Scalar.Col a, Scalar.Col b -> meet_into le a (safe (out_env right) b)
       | _ -> ());
    le
  | P.Apply { kind = Logical.A_outer; outer; inner } ->
    Array.append (out_env outer) (Array.make (P.arity inner) AD.Top)
  | P.Apply { outer; _ } -> out_env outer
  | P.Hash_agg { keys; aggs; child } ->
    let ce = out_env child in
    Array.of_list
      (List.map
         (fun (s, _) ->
           match s with Scalar.Col i -> safe ce i | _ -> AD.Top)
         keys
      @ List.map (fun _ -> AD.Top) aggs)
  | P.Sort { child; _ }
  | P.Top_k { child; _ }
  | P.Limit { child; _ }
  | P.Audit_probe { child; _ } ->
    out_env child
  | P.Distinct c -> out_env c
  | P.Set_op { op; left; right } -> (
    let le = out_env left in
    match op with
    | Sql.Ast.Union | Sql.Ast.Union_all ->
      let re = out_env right in
      Array.mapi (fun i d -> AD.join d (safe re i)) le
    | Sql.Ast.Intersect ->
      let re = out_env right in
      Array.mapi (fun i d -> AD.meet d (safe re i)) le
    | Sql.Ast.Except -> le)

(* ------------------------------------------------------------------ *)
(* Scan-to-probe walk: project every constraint onto base columns       *)
(* ------------------------------------------------------------------ *)

(* One sensitive scan feeding the subtree: [base_env] accumulates the
   constraints every row of this scan that reaches the subtree's output
   provably satisfies, over the scan's base schema; [log] the derivation. *)
type scan_src = {
  scan : P.t;
  alias : string;
  schema : Schema.t;
  base_env : AD.t array;
  mutable log : string list;  (* reversed *)
}

type tracked = { src : scan_src; colmap : int -> int option }

let colname (schema : Schema.t) i =
  if i >= 0 && i < Schema.arity schema then norm schema.(i).Schema.name
  else Printf.sprintf "#%d" i

let note (t : tracked) what base d =
  t.src.log <-
    Printf.sprintf "%s: %s /\\= %s" what (colname t.src.schema base)
      (AD.to_string d)
    :: t.src.log

(* Meet [d] (a constraint on output column [i] of the current node) into
   the base column it traces to, if any. *)
let constrain1 what (t : tracked) i d =
  if d <> AD.Top then
    match t.colmap i with
    | Some b ->
      meet_into t.src.base_env b d;
      note t what b d
    | None -> ()

let constrain what (t : tracked) (env : env) =
  Imap.iter (constrain1 what t) env

let shift_left la (t : tracked) =
  { t with colmap = (fun j -> if j >= 0 && j < la then t.colmap j else None) }

let shift_right la (t : tracked) =
  { t with colmap = (fun j -> if j >= la then t.colmap (j - la) else None) }

(* All scans of [sensitive] feeding [p]'s output, with their accumulated
   base-column constraints. Set-operation subtrees are abandoned (probes
   never cross set operations under our placement; a probe above one
   classifies as [Unknown]); Apply inners and semi-join right sides
   cannot forward an ID column, so their scans are dropped too. *)
let rec walk ~sensitive (p : P.t) : tracked list =
  match p.P.op with
  | P.Seq_scan { table; alias; schema; cols } ->
    if norm table <> sensitive then []
    else
      let arity = Schema.arity schema in
      let src =
        { scan = p; alias; schema; base_env = Array.make arity AD.Top; log = [] }
      in
      let colmap =
        match cols with
        | None -> fun j -> if j >= 0 && j < arity then Some j else None
        | Some idxs ->
          fun j -> if j >= 0 && j < Array.length idxs then Some idxs.(j) else None
      in
      [ { src; colmap } ]
  | P.Filter { pred; child } ->
    let ts = walk ~sensitive child in
    if ts <> [] then begin
      List.iter (fun t -> constrain "Filter" t (eval_pred pred)) ts;
      let ce = lazy (out_env child) in
      List.iter
        (fun (a, b) ->
          let d = AD.meet (safe (Lazy.force ce) a) (safe (Lazy.force ce) b) in
          List.iter
            (fun t ->
              constrain1 "Filter equality" t a d;
              constrain1 "Filter equality" t b d)
            ts)
        (equalities (Some pred))
    end;
    ts
  | P.Project { cols; child } ->
    let ts = walk ~sensitive child in
    let arr = Array.of_list (List.map fst cols) in
    List.map
      (fun t ->
        {
          t with
          colmap =
            (fun j ->
              if j >= 0 && j < Array.length arr then
                match arr.(j) with Scalar.Col i -> t.colmap i | _ -> None
              else None);
        })
      ts
  | P.Hash_join { kind; lkeys; rkeys; residual; left; right; _ } ->
    let la = P.arity left in
    let lts = List.map (shift_left la) (walk ~sensitive left)
    and rts = List.map (shift_right la) (walk ~sensitive right) in
    let inner = kind = Logical.J_inner in
    if lts <> [] || rts <> [] then begin
      let le = lazy (out_env left) and re = lazy (out_env right) in
      (* Equi-key transfer: output rows (matched rows, for the outer
         right side) satisfy left-key = right-key, so each side inherits
         the other's constraint on the paired column. Left rows of a LEFT
         join survive unmatched — no constraint for them. *)
      Array.iteri
        (fun i lk ->
          match (lk, rkeys.(i)) with
          | Scalar.Col a, Scalar.Col b ->
            let d = AD.meet (safe (Lazy.force le) a) (safe (Lazy.force re) b) in
            if inner then List.iter (fun t -> constrain1 "equi-join" t a d) lts;
            List.iter (fun t -> constrain1 "equi-join" t (la + b) d) rts
          | _ -> ())
        lkeys;
      let renv =
        match residual with Some r -> eval_pred r | None -> Imap.empty
      in
      if inner then List.iter (fun t -> constrain "join residual" t renv) lts;
      List.iter (fun t -> constrain "join residual" t renv) rts
    end;
    lts @ rts
  | P.Nl_join { kind; pred; left; right; _ } ->
    let la = P.arity left in
    let lts = List.map (shift_left la) (walk ~sensitive left)
    and rts = List.map (shift_right la) (walk ~sensitive right) in
    let inner = kind = Logical.J_inner in
    if lts <> [] || rts <> [] then begin
      let env = match pred with Some p -> eval_pred p | None -> Imap.empty in
      if inner then List.iter (fun t -> constrain "join predicate" t env) lts;
      List.iter (fun t -> constrain "join predicate" t env) rts;
      let comb =
        lazy
          (let e = Array.append (out_env left) (out_env right) in
           Option.iter (fun r -> apply_env e (eval_pred r)) pred;
           e)
      in
      List.iter
        (fun (a, b) ->
          let d = AD.meet (safe (Lazy.force comb) a) (safe (Lazy.force comb) b) in
          let hit t =
            constrain1 "join equality" t a d;
            constrain1 "join equality" t b d
          in
          if inner then List.iter hit lts;
          List.iter hit rts)
        (equalities pred)
    end;
    lts @ rts
  | P.Index_nl_join { kind; left; left_key; base_col; chain; residual; _ } ->
    let la = P.arity left in
    let lts = List.map (shift_left la) (walk ~sensitive left)
    and cts = walk ~sensitive chain in
    let inner = kind = Logical.J_inner in
    (* Every fetched right row has its indexed column equal to the left
       key value — the lookup is an equi-join — so the left side's
       constraint on the key lands directly on the chain scans' base
       column. *)
    (match left_key with
     | Scalar.Col a when cts <> [] ->
       let d = safe (out_env left) a in
       if d <> AD.Top then
         List.iter
           (fun t ->
             meet_into t.src.base_env base_col d;
             note t "index lookup" base_col d)
           cts
     | _ -> ());
    let cts = List.map (shift_right la) cts in
    (if residual <> None && (lts <> [] || cts <> []) then
       let renv = match residual with Some r -> eval_pred r | None -> Imap.empty in
       begin
         if inner then List.iter (fun t -> constrain "join residual" t renv) lts;
         List.iter (fun t -> constrain "join residual" t renv) cts
       end);
    lts @ cts
  | P.Hash_semi_join { anti; left; left_key; right; right_key; _ } ->
    let ts = walk ~sensitive left in
    (if (not anti) && ts <> [] then
       match (left_key, right_key) with
       | Scalar.Col a, Scalar.Col b ->
         let d = safe (out_env right) b in
         List.iter (fun t -> constrain1 "semi-join membership" t a d) ts
       | _ -> ());
    ts
  | P.Apply { outer; _ } -> walk ~sensitive outer
  | P.Hash_agg { keys; child; _ } ->
    let ts = walk ~sensitive child in
    let arr = Array.of_list (List.map fst keys) in
    List.map
      (fun t ->
        {
          t with
          colmap =
            (fun j ->
              if j >= 0 && j < Array.length arr then
                match arr.(j) with Scalar.Col i -> t.colmap i | _ -> None
              else None);
        })
      ts
  | P.Sort { child; _ }
  | P.Top_k { child; _ }
  | P.Limit { child; _ }
  | P.Audit_probe { child; _ } ->
    walk ~sensitive child
  | P.Distinct c -> walk ~sensitive c
  | P.Set_op _ -> []

(* ------------------------------------------------------------------ *)
(* Canonical scan ordinals                                              *)
(* ------------------------------------------------------------------ *)

let rec scans_preorder (p : P.t) : P.t list =
  match p.P.op with
  | P.Seq_scan _ -> [ p ]
  | _ -> List.concat_map scans_preorder (P.children p)

let scan_ordinal (plan : P.t) ~(scan : P.t) : int option =
  let rec find i = function
    | [] -> None
    | s :: rest -> if s == scan then Some i else find (i + 1) rest
  in
  find 0 (scans_preorder plan)

(* ------------------------------------------------------------------ *)
(* Per-probe classification                                             *)
(* ------------------------------------------------------------------ *)

let probes_preorder (plan : P.t) : P.t list =
  let rec go (p : P.t) =
    (match p.P.op with P.Audit_probe _ -> [ p ] | _ -> [])
    @ List.concat_map go (P.children p)
  in
  go plan

let partition_index schema name =
  match Schema.find_all schema name with i :: _ -> Some i | [] -> None

(* What an audit expression requires of its sensitive rows, over the
   sensitive table's column positions: the audit side of every
   intersection. *)
type audit_side = {
  schema : Schema.t;
  ppos : int;  (** partition-key position *)
  key_unique : bool;
  aenv : AD.t array;
}

(* Plan the audit definition through the statement pipeline. A definition
   that no longer binds (one of its tables was dropped, or re-created
   without a column it names) has no side: its probes stay. *)
let plan_definition ~catalog (info : audit_info) : (P.t, string) result =
  match
    Plan.Binder.query catalog info.definition
    |> Plan.Optimizer.logical_optimize ~catalog
    |> P.plan_of_logical ~catalog
  with
  | def -> Ok def
  | exception
      ( Plan.Binder.Bind_error m
      | Catalog.Unknown_table m
      | Schema.Unknown_column m
      | Schema.Ambiguous_column m ) ->
    Error (Printf.sprintf "definition of %s does not plan: %s" info.name m)

(* The side, and the catalog entries it was derived from: every table
   the definition's plan scans. The constraints are those the scan walk
   proves of the rows of the definition's one sensitive scan that reach
   its output — exactly the rows whose keys are sensitive. Any other
   number of sensitive scans leaves the side all-Top. *)
let build_side ~catalog (info : audit_info) :
    (audit_side * (string * Table.t) list, string) result =
  match Catalog.find_opt catalog info.sensitive_table with
  | None ->
    Error (Printf.sprintf "sensitive table %s not in catalog" info.sensitive_table)
  | Some table -> (
    let schema = Table.schema table in
    match partition_index schema info.partition_by with
    | None ->
      Error
        (Printf.sprintf "partition key %s not in schema of %s" info.partition_by
           info.sensitive_table)
    | Some ppos ->
      Result.map
        (fun def ->
          let aenv =
            match walk ~sensitive:(norm info.sensitive_table) def with
            | [ t ] -> t.src.base_env
            | _ -> Array.make (Schema.arity schema) AD.Top
          in
          let scanned =
            List.filter_map
              (fun (s : P.t) ->
                match s.P.op with
                | P.Seq_scan { table; _ } -> Some (norm table)
                | _ -> None)
              (scans_preorder def)
          in
          ( { schema; ppos; key_unique = Table.key table = Some ppos; aenv },
            List.sort_uniq String.compare (norm info.sensitive_table :: scanned)
            |> List.map (fun name -> (name, Catalog.find catalog name)) ))
        (plan_definition ~catalog info))

(* A built audit side, valid while every table it was derived from is
   still the catalog entry it was built against. *)
type cached_side = {
  info : audit_info;  (** compared by physical identity *)
  deps : (string * Table.t) list;
  side : audit_side;
}

(* Planning and abstract-interpreting the definition costs more than
   analysing a small statement, so each audit expression's side is built
   once and reused. The key is the [audit_info] itself (callers keep one
   per expression; a dropped and re-created expression gets a new one). A
   table that is dropped and re-created (possibly with another column
   order) is a new catalog entry, which rebuilds the side. A failed build
   is not cached: it is retried until the catalog lets it succeed.
   Bounded, newest first. *)
let side_cache : cached_side list ref = ref []
let side_cache_size = 16

let audit_side ~catalog (info : audit_info) : (audit_side, string) result =
  let current c =
    c.info == info
    && List.for_all
         (fun (name, t) ->
           match Catalog.find_opt catalog name with
           | Some t' -> t' == t
           | None -> false)
         c.deps
  in
  match List.find_opt current !side_cache with
  | Some c -> Ok c.side
  | None ->
    Result.map
      (fun (side, deps) ->
        side_cache :=
          { info; deps; side }
          :: List.filteri
               (fun i c' -> i < side_cache_size - 1 && c'.info != info)
               !side_cache;
        side)
      (build_side ~catalog info)

let analyze_plan ~catalog ~(audits : audit_info list) (plan : P.t) :
    decision list =
  let next_id = ref 0 in
  let classify (probe : P.t) : decision =
    let audit_name, id_col, child =
      match probe.P.op with
      | P.Audit_probe { audit_name; id_col; child } -> (audit_name, id_col, child)
      | _ -> assert false
    in
    let unknown detail =
      { probe; audit_name; verdict = Unknown; certificate = None; detail }
    in
    match List.find_opt (fun a -> norm a.name = norm audit_name) audits with
    | None -> unknown "audit expression not declared to the analysis"
    | Some info -> (
      match audit_side ~catalog info with
      | Error detail -> unknown detail
      | Ok { schema; ppos; key_unique; aenv } -> (
        let sensitive = norm info.sensitive_table in
        let matching =
          walk ~sensitive child
          |> List.filter (fun t -> t.colmap id_col <> None)
        in
        match matching with
        | [] ->
          unknown
            (Printf.sprintf
               "ID column does not trace to a scan of %s below the probe"
               info.sensitive_table)
        | _ :: _ :: _ ->
          unknown "ID column traces to more than one sensitive scan"
        | [ t ] -> (
          if t.colmap id_col <> Some ppos then
            unknown
              (Printf.sprintf
                 "ID column traces to base column %s, not partition key %s"
                 (match t.colmap id_col with
                  | Some b -> colname schema b
                  | None -> "?")
                 info.partition_by)
          else
            (* Witness search: the partition column is unconditionally
               sound; other columns only under a unique key. *)
            let candidates =
              ppos
              :: (if key_unique then
                    List.init (Array.length aenv) Fun.id
                    |> List.filter (fun i -> i <> ppos)
                  else [])
            in
            let witness =
              List.find_opt
                (fun i ->
                  AD.is_bot (AD.meet (safe t.src.base_env i) (safe aenv i)))
                candidates
            in
            match witness with
            | None ->
              {
                probe;
                audit_name;
                verdict = Overlapping;
                certificate = None;
                detail =
                  Printf.sprintf
                    "no empty intersection (partition key: %s /\\ %s)"
                    (AD.to_string (safe t.src.base_env ppos))
                    (AD.to_string (safe aenv ppos));
              }
            | Some w ->
              incr next_id;
              let scan_table, scan_alias =
                match t.src.scan.P.op with
                | P.Seq_scan { table; alias; _ } -> (norm table, alias)
                | _ -> (sensitive, t.src.alias)
              in
              let steps =
                List.init (Array.length t.src.base_env) (fun i ->
                    let q = t.src.base_env.(i) and a = safe aenv i in
                    {
                      Certificate.column = colname schema i;
                      query_side = q;
                      audit_side = a;
                      meet = AD.meet q a;
                    })
              in
              let derivation =
                List.rev t.src.log
                @ [
                    Printf.sprintf "witness %s: %s /\\ %s = Bot"
                      (colname schema w)
                      (AD.to_string (safe t.src.base_env w))
                      (AD.to_string (safe aenv w));
                  ]
              in
              let cert =
                {
                  Certificate.id = !next_id;
                  audit_name;
                  sensitive_table = sensitive;
                  partition_by = norm info.partition_by;
                  key_unique;
                  scan_table;
                  scan_alias;
                  scan_ordinal =
                    Option.value ~default:(-1)
                      (scan_ordinal plan ~scan:t.src.scan);
                  witness = colname schema w;
                  steps;
                  derivation;
                }
              in
              {
                probe;
                audit_name;
                verdict = Independent;
                certificate = Some cert;
                detail = Certificate.summary cert;
              })))
  in
  List.map classify (probes_preorder plan)
