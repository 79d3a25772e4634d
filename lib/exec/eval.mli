(** The reference interpreter of scalars: {!Plan.Scalar_eval}, the one
    definition of SQL's scalar rules (three-valued logic, Kleene AND/OR,
    LIKE, CASE, date intervals), applied to a context's correlation stack
    and its session functions [now()]/[user_id()]/[sql_text()]. *)

open Storage

exception Eval_error of string

(** Evaluate a bound expression against a row. [Param]s read the top of the
    context's correlation stack. *)
val eval : Exec_ctx.t -> Tuple.t -> Plan.Scalar.t -> Value.t

(** A predicate holds only when it evaluates to [Bool true] (not NULL). *)
val truthy : Exec_ctx.t -> Tuple.t -> Plan.Scalar.t -> bool
