(** Typed engine errors: one variant per failure class, a single
    [to_string], and the [Error] carrier exception. The robustness-critical
    classes ([Cancelled], [Log_io], [Fault]), [Dependency] and [Reserved]
    propagate typed out of [Db.Database.exec]; the legacy classes are
    re-surfaced as [Db_error (to_string e)] for compatibility. *)

type cancel_reason =
  | Timeout  (** wall-clock deadline exceeded *)
  | Row_budget  (** per-query scanned-row budget exceeded *)
  | Memory_budget  (** per-query materialized-tuple budget exceeded *)

type t =
  | Parse of string
  | Bind of string
  | Exec of string
  | Audit of string
  | Cancelled of { reason : cancel_reason; detail : string }
  | Log_io of string
  | Fault of string
  | Verify of string
      (** the plan-invariant verifier rejected an optimized plan in
          [Strict] mode *)
  | Dependency of { obj : string; dependents : string list }
      (** DDL refused: dropping [obj] would leave [dependents] naming an
          object that is gone *)
  | Reserved of string
      (** DDL refused: the name belongs to a relation that trigger actions
          bind *)
  | Internal of string

exception Error of t

val cancel_reason_to_string : cancel_reason -> string
val to_string : t -> string

(** [raise (Error e)]. *)
val raise_ : t -> 'a

(** Is this exception a guard cancellation? *)
val cancelled : exn -> bool
