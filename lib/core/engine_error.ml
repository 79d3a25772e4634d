(** Typed engine errors.

    One variant per failure class, one [to_string], one carrier exception.
    The legacy stringly exceptions ([Db.Database.Db_error],
    [Exec.Executor.Exec_error]) are kept as thin compatibility wrappers:
    the database facade still surfaces parse/bind/exec failures as
    [Db_error (to_string e)], while the robustness-critical classes —
    [Cancelled], [Log_io], [Fault] — propagate as [Error] so callers can
    match on them without string inspection. *)

type cancel_reason =
  | Timeout  (** wall-clock deadline exceeded *)
  | Row_budget  (** per-query scanned-row budget exceeded *)
  | Memory_budget  (** per-query materialized-tuple budget exceeded *)

type t =
  | Parse of string  (** lexer or parser rejection *)
  | Bind of string  (** name resolution / typing *)
  | Exec of string  (** runtime execution failure *)
  | Audit of string  (** audit expression or operator-placement problem *)
  | Cancelled of { reason : cancel_reason; detail : string }
      (** a query guard aborted execution; the partial ACCESSED set has
          still been audited (no-false-negatives extends to aborted
          queries) *)
  | Log_io of string
      (** an audit-log write or sync failed; under the fail-closed policy
          this withholds the query's results *)
  | Fault of string  (** an injected fault (testing only) *)
  | Verify of string
      (** the plan-invariant verifier rejected an optimized plan in
          [Strict] mode: executing it could break the auditing guarantee *)
  | Dependency of { obj : string; dependents : string list }
      (** DDL refused: dropping [obj] would leave [dependents] (e.g. the
          triggers on an audit expression) naming an object that is gone *)
  | Reserved of string
      (** DDL refused: the name belongs to a relation that trigger actions
          bind ([new], [old], [accessed]) *)
  | Internal of string

exception Error of t

let cancel_reason_to_string = function
  | Timeout -> "timeout"
  | Row_budget -> "row budget"
  | Memory_budget -> "memory budget"

let to_string = function
  | Parse m -> "parse error: " ^ m
  | Bind m -> "bind error: " ^ m
  | Exec m -> "execution error: " ^ m
  | Audit m -> "audit error: " ^ m
  | Cancelled { reason; detail } ->
    Printf.sprintf "cancelled (%s): %s" (cancel_reason_to_string reason) detail
  | Log_io m -> "audit-log I/O error: " ^ m
  | Fault m -> "injected fault: " ^ m
  | Verify m -> "plan verification failed: " ^ m
  | Dependency { obj; dependents } ->
    Printf.sprintf "dependency error: cannot drop %s: %s depends on it" obj
      (String.concat ", " dependents)
  | Reserved name ->
    Printf.sprintf "reserved name: %s is a trigger relation" name
  | Internal m -> "internal error: " ^ m

let raise_ e = raise (Error e)

(** [cancelled (Error e)] when [e] is a guard cancellation. *)
let cancelled = function Error (Cancelled _) -> true | _ -> false
