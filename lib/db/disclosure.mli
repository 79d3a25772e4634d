(** Disclosure accounting — the paper's Figure-1 pipeline as a library:
    a SELECT trigger fills a per-audit log online; per-individual reports
    are verified offline by {!Database.exact_accessed} to discard the
    online filter's false positives (HIPAA accounting, Example 1.1). *)

open Storage

type entry = {
  at : int;  (** logical timestamp of the access *)
  user : string;
  sql : string;
  verified : bool;
      (** confirmed by {!Database.exact_accessed} against the *current*
          database state; [false] = discarded online false positive, or a
          real access that a later write undid *)
}

(** Create the audit-log table (its [accessed_id] column typed as the
    partition key) and logging SELECT trigger for an audit expression.
    Idempotent. *)
val install : Database.t -> audit_name:string -> unit -> unit

(** Drop the trigger and log table. *)
val uninstall : Database.t -> audit_name:string -> unit

(** Raw flagged accesses of one individual: (timestamp, user, sql). *)
val flagged :
  Database.t -> audit_name:string -> id:Value.t -> (int * string * string) list

(** The verified disclosure report for one individual: each flagged
    SELECT re-run by {!Database.exact_accessed} with the individual as
    the only candidate, in the session's configuration. *)
val report : Database.t -> audit_name:string -> id:Value.t -> entry list

(** Users to whom the individual's data was verifiably revealed. *)
val revealed_to : Database.t -> audit_name:string -> id:Value.t -> string list
