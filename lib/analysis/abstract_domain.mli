(** Per-column abstract domain for the independence analysis: finite
    sets, intervals over the total value order, and constant-LIKE prefix
    ranges, with exact meet (conjunction) and hull-widened join
    (disjunction). Everything uninterpretable must map to [Top] —
    over-approximation errs toward flagging, matching FGA (§VI). *)

open Storage

type bound = Value.t * bool  (** the value, and whether it is inclusive *)

type t =
  | Bot  (** unsatisfiable *)
  | Top  (** unconstrained *)
  | Fin of Value.t list  (** finite set; nonempty, sorted, deduplicated *)
  | Range of { lo : bound option; hi : bound option; excl : Value.t list }
      (** interval minus finitely many excluded points *)

(** {1 Constructors} (all normalizing: empty sets and crossed bounds
    collapse to [Bot]) *)

val fin : Value.t list -> t
val eq : Value.t -> t
val neq : Value.t -> t
val lt : Value.t -> t
val le : Value.t -> t
val gt : Value.t -> t
val ge : Value.t -> t

(** Constant [LIKE 'p%']: the string interval [\[p, next_prefix p)]. *)
val prefix : string -> t

(** {1 Lattice operations} *)

(** Conjunction. Exact on this representation. *)
val meet : t -> t -> t

(** Disjunction, widened to the convex hull (sound over-approximation). *)
val join : t -> t -> t

val is_bot : t -> bool
val to_string : t -> string
