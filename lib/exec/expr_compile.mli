(** Scalar expression compilation: one walk of the {!Plan.Scalar.t} tree
    yields a [Tuple.t -> Value.t] closure for the per-row hot path —
    specialized binops, pre-hashed [IN] lists, pre-classified constant
    [LIKE] patterns. The {!Eval} interpreter defines the semantics and
    remains available as the reference oracle via
    [ctx.Exec_ctx.interpret_exprs]. *)

open Storage

type compiled = Tuple.t -> Value.t

(** Compile an expression under [ctx]. [Param]s and session state
    ([now()], [user_id()], [sql_text()]) are read from the context at call
    time, so a compiled closure stays valid across queries on the same
    context. Error behaviour matches [Eval.eval] ({!Eval.Eval_error}).
    When [ctx.interpret_exprs] is set, falls back to the interpreter. *)
val compile : Exec_ctx.t -> Plan.Scalar.t -> compiled

(** Compile a predicate: holds only when it evaluates to [Bool true]. *)
val compile_pred : Exec_ctx.t -> Plan.Scalar.t -> Tuple.t -> bool

(** Pre-classified matcher for a constant LIKE pattern (equality / prefix
    / suffix / substring fast paths, {!Value.like_match} fallback) —
    exposed for the property suite. *)
val like_compiled : string -> string -> bool
