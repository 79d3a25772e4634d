(** The reference interpreter: {!Plan.Scalar_eval} applied to an
    execution context's correlation stack and session. *)

open Plan

exception Eval_error = Scalar_eval.Eval_error

let env (ctx : Exec_ctx.t) =
  {
    Scalar_eval.params = ctx.Exec_ctx.params;
    now = ctx.Exec_ctx.now;
    user = ctx.Exec_ctx.user;
    sql = ctx.Exec_ctx.sql;
  }

let eval ctx row e = Scalar_eval.eval (env ctx) row e
let truthy ctx row pred = Scalar_eval.truthy (env ctx) row pred
