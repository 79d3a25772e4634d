(** A database's configuration as one value: which engine runs SELECTs,
    which physical representation new tables get, whether certified
    probe elision strips audit operators, and how the plan verifier
    reacts to a violation.

    The library reads no mode from the environment: a configuration
    reaches a database only through {!Database.create} and the per-axis
    setters. This module holds the only string parser and printer for
    each axis, shared by [serverd]'s flags, the meta-commands of the
    shell and the wire, and the test runner. *)

(** Which engine runs SELECT-shaped statements: the tuple-at-a-time
    {!Exec.Executor} or the push-based {!Exec.Compiled_exec}. *)
type exec = [ `Row | `Compiled ]

(** Plan-invariant verification policy ({!Analysis.Plan_verify}): [Off]
    skips the check, [Warn] records an alarm per violation, [Strict]
    refuses the plan with {!Engine_core.Engine_error.Verify}. *)
type verify_mode = Off | Warn | Strict

(** Certified static probe elision: [Elide_certified] strips audit
    operators whose independence certificate replays under
    {!Analysis.Certificate.validate}; [Elide_off] executes every probe. *)
type elision_mode = Elide_off | Elide_certified

type t = {
  exec : exec;
  storage : Storage.Table.storage;  (** for tables created from now on *)
  elision : elision_mode;
  verify : verify_mode;
}

(** Row engine, heap tables, elision off, verification off. *)
val default : t

(** {1 One parser and one printer per axis}

    Parsers are case-insensitive and ignore surrounding blanks. *)

(** ["row"] / ["compiled"] (also ["push"]). *)
val exec_of_string : string -> exec option

val exec_to_string : exec -> string

(** {!Storage.Table.storage_of_string}: ["heap"] / ["columnar"]. *)
val storage_of_string : string -> Storage.Table.storage option

val storage_to_string : Storage.Table.storage -> string

(** ["off"] (also ["0"]) / ["certified"] (also ["on"], ["1"]). *)
val elision_of_string : string -> elision_mode option

val elision_to_string : elision_mode -> string

(** ["off"] / ["warn"] / ["strict"] (also ["1"]). *)
val verify_of_string : string -> verify_mode option

val verify_to_string : verify_mode -> string
