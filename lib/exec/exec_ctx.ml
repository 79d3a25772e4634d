(** Execution context.

    Carries everything a running plan needs besides its own operators:

    - the session's catalog (scans resolve tables at open time, so a
      trigger action reads the [accessed]/[new]/[old] its firing bound);
    - session state backing [now()], [user_id()] and [sql_text()] — the
      clock is logical (statement counter) so runs are deterministic;
    - the audit machinery: per-audit-expression sensitive-ID sets probed by
      audit operators, and the per-query [ACCESSED] internal state they
      populate (§II, §IV-A2);
    - [hide]: a (table, key) pair virtually deleted from scans, used by the
      exact offline auditor to evaluate Q(D - t) (Definition 2.3);
    - the parameter stack for correlated [Apply] operators. *)

open Storage

exception Exec_error of string

type audit_slot = {
  mutable marks : int ref Value.Hashtbl_v.t;
      (** sensitive ID -> generation mark, shared by every session of an
          engine. The mark only deduplicates: it holds the generation of
          the last statement that logged the ID. *)
  mutable log : Value.t list;
      (** IDs this statement accessed, newest first: a probe appends an
          ID the first time the statement marks it, DML read-accesses
          append the IDs they capture. Duplicates are possible (an ID that
          left the view and re-entered it is marked afresh); the harvest
          removes them. *)
}

type t = {
  catalog : Catalog.t;
  mutable session_id : int;
      (** identity of the owning session in served (multi-client) mode;
          0 for the single-session engine. Stamped onto every WAL evidence
          record so concurrent sessions' audit trails stay attributable. *)
  mutable now : int;
  mutable user : string;
  mutable sql : string;
  mutable hide : (string * int * Value.t) option;
      (** (table, column index, value): scans of that table skip matching
          rows — the virtual deletion behind Definition 2.3 *)
  audit_sets : (string, audit_slot) Hashtbl.t;
      (** per audit expression: the shared probe table plus this
          session's ACCESSED log *)
  mutable generation : int;
      (** current statement's generation, unique across every context in
          the process; a mark equal to it means "already logged" *)
  mutable params : Tuple.t list;
  mutable interpret_exprs : bool;
      (** evaluate scalars with the {!Eval} reference interpreter instead
          of {!Expr_compile} closures — the oracle mode used by parity
          tests and the before/after benchmark *)
  (* Statistics *)
  mutable audit_probes : int;  (** rows seen by audit operators *)
  mutable audit_hits : int;  (** rows matching a sensitive ID *)
  mutable rows_scanned : int;
  metrics : Metrics.t;
      (** per-operator registry; populated only when metrics collection is
          enabled (EXPLAIN ANALYZE, benchmarks) *)
  (* Query guards: cooperative cancellation. A tripped guard raises the
     typed [Engine_error.Cancelled]; the database layer still flushes the
     partial ACCESSED set, extending no-false-negatives to aborted
     queries. *)
  mutable timeout_s : float option;  (** per-query wall-clock budget *)
  mutable deadline : float option;
      (** monotonic deadline of the current query (armed by
          [reset_query_state] from [timeout_s]) *)
  mutable row_budget : int option;  (** max base-table rows scanned *)
  mutable mem_budget : int option;  (** max tuples materialized by blocking
                                        operators (hash builds, sorts,
                                        groups) *)
  mutable tuples_materialized : int;
  mutable guard_ticks : int;  (** getNext counter for periodic clock checks *)
  faults : Engine_core.Faultkit.t;
      (** fault-injection plan consulted by the executor, trigger runner
          and audit log *)
}

(* Generations come from one process-wide counter: the probe tables are
   shared across sessions, so a per-session count would let a mark left by
   one session equal another session's current generation and hide a real
   access from it. Marks start at 0, below every generation. *)
let generations = Atomic.make 0
let fresh_generation () = 1 + Atomic.fetch_and_add generations 1

let create ?(session_id = 0) catalog =
  {
    catalog;
    session_id;
    now = 0;
    user = "admin";
    sql = "";
    hide = None;
    audit_sets = Hashtbl.create 4;
    generation = fresh_generation ();
    params = [];
    interpret_exprs = false;
    audit_probes = 0;
    audit_hits = 0;
    rows_scanned = 0;
    metrics = Metrics.create ();
    timeout_s = None;
    deadline = None;
    row_budget = None;
    mem_budget = None;
    tuples_materialized = 0;
    guard_ticks = 0;
    faults = Engine_core.Faultkit.create ();
  }

let norm = String.lowercase_ascii

(** A scanned table, resolved when its operator opens. *)
let resolve_table ctx table =
  match Catalog.find_opt ctx.catalog table with
  | Some t -> t
  | None -> raise (Exec_error (Printf.sprintf "unknown table %s" table))

(** The [?hide] partition a scan of [table] must skip, if any. *)
let hide_for ctx table =
  match ctx.hide with
  | Some (ht, col, v) when norm ht = norm table -> Some (col, v)
  | _ -> None

(** Install the sensitive-ID mark table an audit operator probes. A
    re-install mid-statement (trigger bodies re-install before running)
    keeps the log. *)
let set_audit_ids ctx ~audit_name marks =
  match Hashtbl.find_opt ctx.audit_sets (norm audit_name) with
  | Some s -> s.marks <- marks
  | None -> Hashtbl.replace ctx.audit_sets (norm audit_name) { marks; log = [] }

let audit_slot ctx ~audit_name = Hashtbl.find_opt ctx.audit_sets (norm audit_name)

(** The audit operator's per-row body, shared by the row and
    compiled engines: one hash probe; a hit marks the ID and, the first
    time this statement marks it, appends it to the log. Never filters
    (§IV-A2). *)
let probe ctx slot (st : Metrics.op_stats option) v =
  ctx.audit_probes <- ctx.audit_probes + 1;
  (match st with Some s -> s.Metrics.probes <- s.Metrics.probes + 1 | None -> ());
  match Value.Hashtbl_v.find_opt slot.marks v with
  | None -> ()
  | Some mark ->
    ctx.audit_hits <- ctx.audit_hits + 1;
    (match st with Some s -> s.Metrics.hits <- s.Metrics.hits + 1 | None -> ());
    if !mark <> ctx.generation then begin
      mark := ctx.generation;
      slot.log <- v :: slot.log
    end

(** Start a fresh query: a new generation turns every mark stale in O(1)
    and the logs are emptied. *)
let reset_query_state ctx =
  ctx.generation <- fresh_generation ();
  Hashtbl.iter (fun _ s -> s.log <- []) ctx.audit_sets;
  ctx.params <- [];
  ctx.audit_probes <- 0;
  ctx.audit_hits <- 0;
  ctx.rows_scanned <- 0;
  ctx.tuples_materialized <- 0;
  ctx.guard_ticks <- 0;
  ctx.deadline <-
    Option.map (fun s -> Engine_core.Mono_clock.now () +. s) ctx.timeout_s;
  Metrics.clear ctx.metrics

(** Start a read inside the current statement: a new generation logs its
    accesses afresh, apart from the statement's earlier ones, which the
    returned closure puts back under them. *)
let begin_read ctx =
  ctx.generation <- fresh_generation ();
  let saved =
    Hashtbl.fold
      (fun _ s acc ->
        let l = s.log in
        s.log <- [];
        (s, l) :: acc)
      ctx.audit_sets []
  in
  fun () -> List.iter (fun (s, l) -> if l <> [] then s.log <- s.log @ l) saved

(** Sorted, duplicate-free ACCESSED IDs of an audit expression for the
    current query: the log, never the whole probe table. *)
let accessed_list ctx ~audit_name =
  match audit_slot ctx ~audit_name with
  | None -> []
  | Some s -> List.sort_uniq Value.compare_total s.log

let accessed_count ctx ~audit_name =
  List.length (accessed_list ctx ~audit_name)

(* ------------------------------------------------------------------ *)
(* Query guards                                                        *)
(* ------------------------------------------------------------------ *)

let cancel reason detail =
  Engine_core.Engine_error.raise_
    (Engine_core.Engine_error.Cancelled { reason; detail })

(** Any guard armed for the current query? Checked once per compile so the
    unguarded hot path carries no per-row cost. *)
let guards_armed ctx =
  ctx.deadline <> None || ctx.row_budget <> None || ctx.mem_budget <> None

let check_deadline ctx =
  match ctx.deadline with
  | Some d when Engine_core.Mono_clock.now () > d ->
    cancel Engine_core.Engine_error.Timeout
      (Printf.sprintf "query exceeded its %gs wall-clock budget"
         (Option.value ctx.timeout_s ~default:0.0))
  | _ -> ()

(** Cheap periodic guard check, called per [getNext] when guards are
    armed: the clock is read only every 16th call. *)
let check_guards ctx =
  ctx.guard_ticks <- ctx.guard_ticks + 1;
  if ctx.guard_ticks land 15 = 0 then check_deadline ctx

(** Count a base-table row against the scan budget. *)
let note_scanned ctx =
  ctx.rows_scanned <- ctx.rows_scanned + 1;
  match ctx.row_budget with
  | Some b when ctx.rows_scanned > b ->
    cancel Engine_core.Engine_error.Row_budget
      (Printf.sprintf "query scanned more than %d rows" b)
  | _ -> ()

(** Count [n] base-table rows at once — a chunked scan's O(1) charge
    per chunk. Equivalent to [n] [note_scanned] calls, except that with a
    row budget armed the cancellation would land at the chunk boundary
    rather than the exact row; callers must charge per row in that case. *)
let note_scanned_many ctx n = ctx.rows_scanned <- ctx.rows_scanned + n

(** Count a tuple materialized by a blocking operator (hash build, sort
    buffer, group table) against the memory budget. *)
let note_materialized ctx =
  match ctx.mem_budget with
  | None -> ()
  | Some b ->
    ctx.tuples_materialized <- ctx.tuples_materialized + 1;
    if ctx.tuples_materialized > b then
      cancel Engine_core.Engine_error.Memory_budget
        (Printf.sprintf "query materialized more than %d tuples" b)
