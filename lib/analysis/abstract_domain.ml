(** Per-column abstract domain for the independence analysis.

    An abstract value over-approximates the set of SQL values a column may
    take in any row satisfying a predicate. The lattice is

    {v
              Top                      (unconstrained)
          /    |     \
      Range  Fin  (prefix = Range over strings)
          \    |     /
              Bot                      (unsatisfiable)
    v}

    - [Fin vs] — the column lies in the finite set [vs] (from equality and
      [IN] lists);
    - [Range {lo; hi; excl}] — the column lies in an interval over the
      total value order ({!Storage.Value.compare_total}: ints, floats and
      dates compare numerically/chronologically, strings byte-wise), minus
      the finitely many [excl]uded points (from [<>]);
    - constant [LIKE 'abc%'] prefixes are encoded as the string interval
      [\["abc", "abd")] by {!prefix}, so they meet uniformly with equality
      and range constraints.

    [meet] (conjunction) is exact on this representation; [join]
    (disjunction) widens to the convex hull, which keeps it sound: the
    concretization of [join a b] contains both concretizations. Everything
    the analyzer cannot interpret must map to [Top] — over-approximation
    errs toward {e flagging} a query, matching FGA's bias (§VI). *)

open Storage

type bound = Value.t * bool  (** the value, and whether it is inclusive *)

type t =
  | Bot
  | Top
  | Fin of Value.t list  (** nonempty, sorted, deduplicated *)
  | Range of { lo : bound option; hi : bound option; excl : Value.t list }
      (** at least one bound or exclusion present *)

(* ------------------------------------------------------------------ *)
(* Constructors (normalizing)                                          *)
(* ------------------------------------------------------------------ *)

let norm_set vs = List.sort_uniq Value.compare_total vs

let fin vs = match norm_set vs with [] -> Bot | vs -> Fin vs

(* A bound pair is satisfiable iff lo < hi, or lo = hi with both ends
   inclusive. *)
let bounds_ok lo hi =
  match (lo, hi) with
  | Some (l, li), Some (h, hi_) ->
    let c = Value.compare_total l h in
    c < 0 || (c = 0 && li && hi_)
  | _ -> true

let in_bounds ~lo ~hi v =
  (match lo with
  | None -> true
  | Some (l, incl) ->
    let c = Value.compare_total v l in
    if incl then c >= 0 else c > 0)
  && match hi with
     | None -> true
     | Some (h, incl) ->
       let c = Value.compare_total v h in
       if incl then c <= 0 else c < 0

let range ?lo ?hi ?(excl = []) () =
  if not (bounds_ok lo hi) then Bot
  else
    match (lo, hi) with
    | Some (l, true), Some (h, true) when Value.equal l h ->
      (* Degenerate interval [v, v] is the singleton {v}. *)
      if List.exists (Value.equal l) excl then Bot else Fin [ l ]
    | None, None when excl = [] -> Top
    | _ -> Range { lo; hi; excl = norm_set excl }

let eq v = Fin [ v ]
let neq v = range ~excl:[ v ] ()
let lt v = range ~hi:(v, false) ()
let le v = range ~hi:(v, true) ()
let gt v = range ~lo:(v, false) ()
let ge v = range ~lo:(v, true) ()

(** Successor of a string prefix: the least string that is not
    prefix-extended from [p] — ["abc"] -> ["abd"]. [None] when every byte
    is [0xff] (no finite upper bound). *)
let next_prefix p =
  let rec go i =
    if i < 0 then None
    else
      let c = Char.code p.[i] in
      if c < 0xff then
        Some (String.sub p 0 i ^ String.make 1 (Char.chr (c + 1)))
      else go (i - 1)
  in
  go (String.length p - 1)

(** Constant [LIKE 'p%']: all strings with prefix [p], as the interval
    [\[p, next_prefix p)]. An empty prefix constrains nothing. *)
let prefix p =
  if p = "" then Top
  else
    match next_prefix p with
    | Some q -> range ~lo:(Value.Str p, true) ~hi:(Value.Str q, false) ()
    | None -> range ~lo:(Value.Str p, true) ()

(* ------------------------------------------------------------------ *)
(* Lattice operations                                                  *)
(* ------------------------------------------------------------------ *)

let tighter_lo a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare_total va vb in
    if c > 0 then a
    else if c < 0 then b
    else Some (va, ia && ib)

let tighter_hi a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare_total va vb in
    if c < 0 then a
    else if c > 0 then b
    else Some (va, ia && ib)

(** Greatest lower bound: the conjunction of two constraints. Exact. *)
let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, x | x, Top -> x
  | Fin xs, Fin ys -> fin (List.filter (fun x -> List.exists (Value.equal x) ys) xs)
  | Fin xs, Range { lo; hi; excl } | Range { lo; hi; excl }, Fin xs ->
    fin
      (List.filter
         (fun x ->
           in_bounds ~lo ~hi x && not (List.exists (Value.equal x) excl))
         xs)
  | Range a, Range b ->
    range
      ?lo:(tighter_lo a.lo b.lo)
      ?hi:(tighter_hi a.hi b.hi)
      ~excl:(a.excl @ b.excl) ()

let wider_lo a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare_total va vb in
    if c < 0 then a else if c > 0 then b else Some (va, ia || ib)

let wider_hi a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare_total va vb in
    if c > 0 then a else if c < 0 then b else Some (va, ia || ib)

(* The convex hull [lo, hi] of an abstract value, used to widen joins. *)
let hull = function
  | Bot -> None
  | Top -> Some (None, None)
  | Fin vs ->
    let lo = List.hd vs and hi = List.nth vs (List.length vs - 1) in
    Some (Some (lo, true), Some (hi, true))
  | Range { lo; hi; _ } -> Some (lo, hi)

(** Least upper bound (widened to the convex hull): the disjunction of two
    constraints. Sound: [concr a ∪ concr b ⊆ concr (join a b)]. *)
let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Fin xs, Fin ys -> fin (xs @ ys)
  | _ -> (
    match (hull a, hull b) with
    | Some (la, ha), Some (lb, hb) ->
      (* Exclusions survive the join only when excluded from both sides. *)
      let excl_of = function Range r -> r.excl | _ -> [] in
      let excl =
        List.filter
          (fun v -> List.exists (Value.equal v) (excl_of b) || b = Bot)
          (excl_of a)
      in
      range ?lo:(wider_lo la lb) ?hi:(wider_hi ha hb) ~excl ()
    | _ -> assert false (* Bot handled above *))

let is_bot = function Bot -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string = function
  | Bot -> "⊥"
  | Top -> "⊤"
  | Fin vs ->
    Printf.sprintf "{%s}" (String.concat ", " (List.map Value.to_string vs))
  | Range { lo; hi; excl } ->
    let b = Buffer.create 32 in
    (match lo with
    | Some (v, incl) ->
      Buffer.add_string b (if incl then "[" else "(");
      Buffer.add_string b (Value.to_string v)
    | None -> Buffer.add_string b "(-inf");
    Buffer.add_string b ", ";
    (match hi with
    | Some (v, incl) ->
      Buffer.add_string b (Value.to_string v);
      Buffer.add_string b (if incl then "]" else ")")
    | None -> Buffer.add_string b "+inf)");
    if excl <> [] then
      Buffer.add_string b
        (Printf.sprintf " \\ {%s}"
           (String.concat ", " (List.map Value.to_string excl)));
    Buffer.contents b
