(** Disclosure accounting — the paper's Figure-1 pipeline as a library.

    HIPAA-style disclosure accounting (Example 1.1) needs three pieces:
    an audit log filled online by a SELECT trigger, a per-individual query
    over that log, and offline verification of the flagged queries to
    discard the online filter's false positives. This module packages the
    three against a {!Database.t}:

    {[
      Disclosure.install db ~audit_name:"audit_all_patients" ();
      (* ... workload runs; accesses accumulate in the log ... *)
      let report = Disclosure.report db ~audit_name ~id:(Value.Int 1) in
    ]} *)

open Storage

type entry = {
  at : int;  (** logical timestamp of the access *)
  user : string;
  sql : string;
  verified : bool;
      (** confirmed by {!Database.exact_accessed} (Definition 2.3)
          against the *current* database state; [false] = discarded as an
          online false positive, or a real access that a later write
          undid *)
}

let log_table_of audit_name =
  Printf.sprintf "disclosure_log_%s" (String.lowercase_ascii audit_name)

let trigger_of audit_name =
  Printf.sprintf "disclosure_%s" (String.lowercase_ascii audit_name)

(** Create the audit log table for [audit_name] and the SELECT trigger that
    fills it. Idempotent per audit expression. *)
let install db ~audit_name () =
  let log_table = log_table_of audit_name in
  let catalog = Database.catalog db in
  if not (Catalog.mem catalog log_table) then begin
    let view = Database.audit_view db audit_name in
    let expr = view.Audit_core.Sensitive_view.expr in
    (* [accessed_id] holds partition keys, so it takes the key's type. *)
    let key =
      Schema.col
        (Table.schema (Catalog.find catalog expr.sensitive_table))
        view.key_idx
    in
    ignore
      (Database.exec db
         (Printf.sprintf
            "CREATE TABLE %s (at INT, usr VARCHAR, sqltext VARCHAR, \
             accessed_id %s)"
            log_table
            (Datatype.to_string key.Schema.ty)));
    ignore
      (Database.exec db
         (Printf.sprintf
            "CREATE TRIGGER %s ON ACCESS TO %s AS INSERT INTO %s SELECT \
             now(), user_id(), sql_text(), %s FROM accessed"
            (trigger_of audit_name) audit_name log_table
            expr.partition_by))
  end

(** Remove the trigger and log table. *)
let uninstall db ~audit_name =
  (try ignore (Database.exec db ("DROP TRIGGER " ^ trigger_of audit_name))
   with Database.Db_error _ -> ());
  try ignore (Database.exec db ("DROP TABLE " ^ log_table_of audit_name))
  with Database.Db_error _ -> ()

(** Raw log entries mentioning [id] (online filter output, unverified). *)
let flagged db ~audit_name ~(id : Value.t) : (int * string * string) list =
  let rows =
    Database.query db
      (Printf.sprintf
         "SELECT DISTINCT at, usr, sqltext FROM %s WHERE accessed_id = %s \
          ORDER BY at"
         (log_table_of audit_name)
         (Value.to_sql_literal id))
  in
  List.map
    (fun r ->
      (Value.to_int_exn r.(0), Value.to_str_exn r.(1), Value.to_str_exn r.(2)))
    rows

(** The disclosure report for one individual: every flagged access,
    verified by {!Database.exact_accessed} with [id] as the only
    candidate, in the session's configuration. Verification replays each
    query against the current database state, not the state at the
    access (the paper's offline systems would roll back to it), so a
    later write can turn a real disclosure into [verified = false]. *)
let report db ~audit_name ~(id : Value.t) : entry list =
  List.map
    (fun (at, user, sql) ->
      let verified =
        match Sql.Parser.statement sql with
        | Sql.Ast.S_select q ->
          Database.exact_accessed db ~audit:audit_name ~candidates:[ id ]
            (Database.plan_query db ~audits:[] q)
          <> []
        | _ | (exception _) ->
          (* Not replayable (e.g. the statement text was a script):
             conservatively keep it. *)
          true
      in
      { at; user; sql; verified })
    (flagged db ~audit_name ~id)

(** Users to whom [id]'s data was (verifiably) revealed. *)
let revealed_to db ~audit_name ~id : string list =
  report db ~audit_name ~id
  |> List.filter_map (fun e -> if e.verified then Some e.user else None)
  |> List.sort_uniq String.compare
