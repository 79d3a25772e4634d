(** Per-probe trigger–query independence on the physical plan. See the
    interface for the soundness argument: compiled {!Plan.Scalar.t}
    predicates are abstracted with positional columns, and a
    scan-to-probe walk projects every constraint back onto the covered
    scan's base schema. The same walk over the audit definition's own
    plan yields the audit side, and over a statement shape's plan, in a
    domain that tracks what the literals decide, says whether any
    filling of the shape can certify a probe. *)

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

(* Column index -> abstract value; absent = top. *)
type 'd env = 'd Imap.t

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

let singleton i d : AD.t env =
  if d = AD.Top then Imap.empty else Imap.singleton i d

(* Rows satisfying one atomic predicate (a comparison, IN list, IS NULL
   or LIKE) under 3VL satisfy the returned env; every uninterpretable
   shape maps to the empty env = Top — sound. *)
let atom_env (p : Scalar.t) : AD.t env =
  match p with
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
      singleton i
        (Array.fold_left
           (fun d v ->
             match inv v with Some v' -> AD.meet d (AD.neq v') | None -> d)
           AD.Top vs)
    | None -> Imap.empty)
  | Scalar.Is_null (Scalar.Col i, negated) ->
    singleton i (if negated then AD.neq Value.Null else AD.eq Value.Null)
  | Scalar.Like (Scalar.Col i, Scalar.Const (Value.Str pat), false) ->
    singleton i (like_domain pat)
  | _ -> Imap.empty

(* The atom NOT [p] is, when [p] is an atom with a negated form. *)
let negate_atom (p : Scalar.t) : Scalar.t option =
  match p with
  | Scalar.Binop (op, a, b) ->
    Option.map (fun op' -> Scalar.Binop (op', a, b)) (negate_cmp op)
  | Scalar.In_list (e, vs, n) -> Some (Scalar.In_list (e, vs, not n))
  | Scalar.Is_null (e, n) -> Some (Scalar.Is_null (e, not n))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The values the walk computes with                                   *)
(* ------------------------------------------------------------------ *)

(* The walk below is written once over a value domain. [Concrete] is the
   abstract domain itself, for a plan whose literals are filled in.
   [Symbolic] runs the same walk over a statement shape's plan, whose
   literals are slots ({!Plan.Scalar.lift}), and says for each value what
   it is across every filling of the slots. *)
module type DOMAIN = sig
  type t

  val top : t
  val is_top : t -> bool
  val meet : t -> t -> t
  val join : t -> t -> t

  val atom : Scalar.t -> t env
  (** what rows satisfying an atomic predicate satisfy *)

  val output : Scalar.t -> t
  (** the value of a projected expression that is no column *)

  val to_string : t -> string
end

module Concrete = struct
  type t = AD.t

  let top = AD.Top
  let is_top d = d = AD.Top
  let meet = AD.meet
  let join = AD.join
  let atom = atom_env
  let output = function Scalar.Const v -> AD.eq v | _ -> AD.Top
  let to_string = AD.to_string
end

module Symbolic = struct
  (* A value over every filling of a shape's slots: [Exact d] is [d] in
     every filling; [Never_bot] depends on a slot but is never Bot;
     [May_be_bot] depends on a slot and may be Bot. One filled atom is
     never Bot (a comparison's, a LIKE pattern's or a NOT IN's
     constraint is not, and an IN list has a member), and a join lies
     above both of its sides; only a meet that adds a constraint to a
     slot's can reach Bot. *)
  type t = Exact of AD.t | Never_bot | May_be_bot

  let top = Exact AD.Top
  let is_top = function Exact AD.Top -> true | _ -> false

  let meet a b =
    match (a, b) with
    | Exact x, Exact y -> Exact (AD.meet x y)
    | (Exact AD.Bot as bot), _ | _, (Exact AD.Bot as bot) -> bot
    | Exact AD.Top, v | v, Exact AD.Top -> v
    | _ -> May_be_bot

  let join a b =
    match (a, b) with
    | Exact x, Exact y -> Exact (AD.join x y)
    | (Exact AD.Top as top), _ | _, (Exact AD.Top as top) -> top
    | Exact AD.Bot, v | v, Exact AD.Bot -> v
    | May_be_bot, May_be_bot -> May_be_bot
    | _ -> Never_bot

  (* A filled atom constrains at most one of the columns it reads. *)
  let atom p =
    if Scalar.fold (fun acc -> function | Scalar.Slot _ -> true | _ -> acc) false p
    then
      List.fold_left
        (fun env i -> Imap.add i Never_bot env)
        Imap.empty (Scalar.free_cols p)
    else Imap.map (fun d -> Exact d) (atom_env p)

  let output = function
    | Scalar.Slot _ -> Never_bot
    | e -> Exact (Concrete.output e)

  let to_string = function
    | Exact d -> AD.to_string d
    | Never_bot -> "$"
    | May_be_bot -> "$?"
end

(* ------------------------------------------------------------------ *)
(* Compositional per-output-column constraints, and the scan-to-probe  *)
(* walk that projects every constraint onto base columns              *)
(* ------------------------------------------------------------------ *)

(* One sensitive scan feeding the subtree: [base_env] accumulates the
   constraints every row of this scan that reaches the subtree's output
   provably satisfies, over the scan's base schema; [log] the derivation. *)
type 'd scan_src = {
  scan : P.t;
  alias : string;
  schema : Schema.t;
  base_env : 'd array;
  mutable log : string list;  (* reversed *)
}

type 'd tracked = { src : 'd scan_src; colmap : int -> int option }

let colname (schema : Schema.t) i =
  if i >= 0 && i < Schema.arity schema then norm schema.(i).Schema.name
  else Printf.sprintf "#%d" i

module Make (D : DOMAIN) = struct
  let env_meet : D.t env -> D.t env -> D.t env =
    Imap.union (fun _ a b -> Some (D.meet a b))

  (* Disjunction: a column is constrained only if both branches constrain it. *)
  let env_or (a : D.t env) (b : D.t env) : D.t env =
    Imap.merge
      (fun _ x y ->
        match (x, y) with Some a, Some b -> Some (D.join a b) | _ -> None)
      a b

  (* Rows surviving [p] under 3VL satisfy the returned env. *)
  let rec eval_pred (p : Scalar.t) : D.t env =
    match p with
    | Scalar.Binop (Sql.Ast.And, a, b) -> env_meet (eval_pred a) (eval_pred b)
    | Scalar.Binop (Sql.Ast.Or, a, b) -> env_or (eval_pred a) (eval_pred b)
    | Scalar.Not a -> eval_neg a
    | _ -> D.atom p

  and eval_neg (p : Scalar.t) : D.t env =
    match p with
    | Scalar.Not a -> eval_pred a
    | Scalar.Binop (Sql.Ast.And, a, b) -> env_or (eval_neg a) (eval_neg b)
    | Scalar.Binop (Sql.Ast.Or, a, b) -> env_meet (eval_neg a) (eval_neg b)
    | _ -> (
      match negate_atom p with Some q -> D.atom q | None -> Imap.empty)

  let safe (a : D.t array) i = if i >= 0 && i < Array.length a then a.(i) else D.top

  let meet_into (a : D.t array) i d =
    if i >= 0 && i < Array.length a then a.(i) <- D.meet a.(i) d

  let apply_env (a : D.t array) (env : D.t env) = Imap.iter (meet_into a) env

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
  let rec out_env (p : P.t) : D.t array =
    match p.P.op with
    | P.Seq_scan _ -> Array.make (P.arity p) D.top
    | P.Filter { pred; child } ->
      let e = Array.copy (out_env child) in
      apply_env e (eval_pred pred);
      List.iter
        (fun (a, b) ->
          let d = D.meet (safe e a) (safe e b) in
          meet_into e a d;
          meet_into e b d)
        (equalities (Some pred));
      e
    | P.Project { cols; child } ->
      let ce = out_env child in
      Array.of_list
        (List.map
           (fun (s, _) ->
             match s with Scalar.Col i -> safe ce i | s -> D.output s)
           cols)
    | P.Hash_join { kind; lkeys; rkeys; residual; left; right; right_arity; _ }
      -> (
      let le = out_env left in
      match kind with
      | Logical.J_left -> Array.append le (Array.make right_arity D.top)
      | Logical.J_inner ->
        let re = out_env right in
        let la = Array.length le in
        let comb = Array.append le re in
        Array.iteri
          (fun i lk ->
            match (lk, rkeys.(i)) with
            | Scalar.Col a, Scalar.Col b ->
              let d = D.meet (safe comb a) (safe comb (la + b)) in
              meet_into comb a d;
              meet_into comb (la + b) d
            | _ -> ())
          lkeys;
        Option.iter (fun r -> apply_env comb (eval_pred r)) residual;
        comb)
    | P.Nl_join { kind; pred; left; right; right_arity; _ } -> (
      let le = out_env left in
      match kind with
      | Logical.J_left -> Array.append le (Array.make right_arity D.top)
      | Logical.J_inner ->
        let comb = Array.append le (out_env right) in
        Option.iter (fun r -> apply_env comb (eval_pred r)) pred;
        List.iter
          (fun (a, b) ->
            let d = D.meet (safe comb a) (safe comb b) in
            meet_into comb a d;
            meet_into comb b d)
          (equalities pred);
        comb)
    | P.Index_nl_join { kind; left; chain; residual; right_arity; _ } -> (
      let le = out_env left in
      match kind with
      | Logical.J_left -> Array.append le (Array.make right_arity D.top)
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
      Array.append (out_env outer) (Array.make (P.arity inner) D.top)
    | P.Apply { outer; _ } -> out_env outer
    | P.Hash_agg { keys; aggs; child } ->
      let ce = out_env child in
      Array.of_list
        (List.map
           (fun (s, _) -> match s with Scalar.Col i -> safe ce i | _ -> D.top)
           keys
        @ List.map (fun _ -> D.top) aggs)
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
        Array.mapi (fun i d -> D.join d (safe re i)) le
      | Sql.Ast.Intersect ->
        let re = out_env right in
        Array.mapi (fun i d -> D.meet d (safe re i)) le
      | Sql.Ast.Except -> le)

  let note (t : D.t tracked) what base d =
    t.src.log <-
      Printf.sprintf "%s: %s /\\= %s" what (colname t.src.schema base)
        (D.to_string d)
      :: t.src.log

  (* Meet [d] (a constraint on output column [i] of the current node) into
     the base column it traces to, if any. *)
  let constrain1 what (t : D.t tracked) i d =
    if not (D.is_top d) then
      match t.colmap i with
      | Some b ->
        meet_into t.src.base_env b d;
        note t what b d
      | None -> ()

  let constrain what (t : D.t tracked) (env : D.t env) =
    Imap.iter (constrain1 what t) env

  let shift_left la (t : D.t tracked) =
    { t with colmap = (fun j -> if j >= 0 && j < la then t.colmap j else None) }

  let shift_right la (t : D.t tracked) =
    { t with colmap = (fun j -> if j >= la then t.colmap (j - la) else None) }

  (* All scans of [sensitive] feeding [p]'s output, with their accumulated
     base-column constraints. Set-operation subtrees are abandoned (probes
     never cross set operations under our placement; a probe above one
     classifies as [Unknown]); Apply inners and semi-join right sides
     cannot forward an ID column, so their scans are dropped too. *)
  let rec walk ~sensitive (p : P.t) : D.t tracked list =
    match p.P.op with
    | P.Seq_scan { table; alias; schema; cols } ->
      if norm table <> sensitive then []
      else
        let arity = Schema.arity schema in
        let src =
          { scan = p; alias; schema; base_env = Array.make arity D.top; log = [] }
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
            let d = D.meet (safe (Lazy.force ce) a) (safe (Lazy.force ce) b) in
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
              let d = D.meet (safe (Lazy.force le) a) (safe (Lazy.force re) b) in
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
            let d = D.meet (safe (Lazy.force comb) a) (safe (Lazy.force comb) b) in
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
         if not (D.is_top d) then
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
end

module C = Make (Concrete)
module S = Make (Symbolic)

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
            match C.walk ~sensitive:(norm info.sensitive_table) def with
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

(* What classifies a probe, whatever the literals: the one sensitive
   scan below it that its ID column traces to, on its audit's partition
   key, with that audit's side and the witness candidates — or why the
   probe is [Unknown]. [walk] is the concrete or the symbolic walk. *)
type 'd traced = {
  info : audit_info;
  side : audit_side;
  t : 'd tracked;
  candidates : int list;
}

let trace ~catalog ~audits ~walk (probe : P.t) : ('d traced, string) result =
  let audit_name, id_col, child =
    match probe.P.op with
    | P.Audit_probe { audit_name; id_col; child } -> (audit_name, id_col, child)
    | _ -> assert false
  in
  match List.find_opt (fun a -> norm a.name = norm audit_name) audits with
  | None -> Error "audit expression not declared to the analysis"
  | Some info -> (
    match audit_side ~catalog info with
    | Error detail -> Error detail
    | Ok side -> (
      match
        walk ~sensitive:(norm info.sensitive_table) child
        |> List.filter (fun t -> t.colmap id_col <> None)
      with
      | [] ->
        Error
          (Printf.sprintf
             "ID column does not trace to a scan of %s below the probe"
             info.sensitive_table)
      | _ :: _ :: _ -> Error "ID column traces to more than one sensitive scan"
      | [ t ] ->
        if t.colmap id_col <> Some side.ppos then
          Error
            (Printf.sprintf
               "ID column traces to base column %s, not partition key %s"
               (match t.colmap id_col with
                | Some b -> colname side.schema b
                | None -> "?")
               info.partition_by)
        else
          (* Witness search: the partition column is unconditionally
             sound; other columns only under a unique key. *)
          Ok
            {
              info;
              side;
              t;
              candidates =
                side.ppos
                :: (if side.key_unique then
                      List.init (Array.length side.aenv) Fun.id
                      |> List.filter (fun i -> i <> side.ppos)
                    else []);
            }))

let audit_name_of (probe : P.t) =
  match probe.P.op with P.Audit_probe { audit_name; _ } -> audit_name | _ -> assert false

let analyze_plan ~catalog ~(audits : audit_info list) (plan : P.t) :
    decision list =
  let next_id = ref 0 in
  let classify (probe : P.t) : decision =
    let audit_name = audit_name_of probe in
    match trace ~catalog ~audits ~walk:C.walk probe with
    | Error detail ->
      { probe; audit_name; verdict = Unknown; certificate = None; detail }
    | Ok { info; side = { schema; ppos; key_unique; aenv }; t; candidates } -> (
      let sensitive = norm info.sensitive_table in
      let witness =
        List.find_opt
          (fun i -> AD.is_bot (AD.meet (C.safe t.src.base_env i) (C.safe aenv i)))
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
            Printf.sprintf "no empty intersection (partition key: %s /\\ %s)"
              (AD.to_string (C.safe t.src.base_env ppos))
              (AD.to_string (C.safe aenv ppos));
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
              let q = t.src.base_env.(i) and a = C.safe aenv i in
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
              Printf.sprintf "witness %s: %s /\\ %s = Bot" (colname schema w)
                (AD.to_string (C.safe t.src.base_env w))
                (AD.to_string (C.safe aenv w));
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
              Option.value ~default:(-1) (scan_ordinal plan ~scan:t.src.scan);
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
        })
  in
  List.map classify (probes_preorder plan)

(* ------------------------------------------------------------------ *)
(* Per-shape classification                                             *)
(* ------------------------------------------------------------------ *)

type scope = Shape | Statement of { audit_name : string; column : string }

(* The symbolic walk over the slotted plan traces every probe as the
   concrete walk traces it in any filling (tracing reads no literal).
   A candidate can witness in some filling unless its query-side value
   meets the audit side to a value that is never Bot: [Exact] and not
   Bot, or [Never_bot] against an unconstrained audit column. An
   [Exact] Bot witnesses in every filling, and its certificate still
   names the statement's literals, so that shape is per statement too. *)
let shape_scope ~catalog ~(audits : audit_info list) (plan : P.t) : scope =
  let certifiable (tr : Symbolic.t traced) i =
    match
      Symbolic.meet (S.safe tr.t.src.base_env i)
        (Symbolic.Exact (C.safe tr.side.aenv i))
    with
    | Symbolic.Exact d -> AD.is_bot d
    | Symbolic.Never_bot -> false
    | Symbolic.May_be_bot -> true
  in
  List.find_map
    (fun probe ->
      match trace ~catalog ~audits ~walk:S.walk probe with
      | Error _ -> None
      | Ok tr ->
        List.find_opt (certifiable tr) tr.candidates
        |> Option.map (fun i ->
               Statement
                 { audit_name = tr.info.name; column = colname tr.side.schema i }))
    (probes_preorder plan)
  |> Option.value ~default:Shape
