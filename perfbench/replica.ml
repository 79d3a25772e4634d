(* The traced run: an in-process replica of the audited serverd
   configuration that replays the workload's seeded statements through
   each layer's public functions and records a span around every call.

   Per statement the root span "stmt" covers what serverd does for one
   request: decode the request frame, [Database.exec] on a
   deferred-evidence session ("db.exec"), harvest the evidence and
   [Wal.Group.submit] it ("audit_log.submit"), encode the reply frame
   (both codec round-trips are "server.wire" spans). A SELECT's stages
   have no public entry points inside [Database.exec], so right after
   the statement they are replayed one by one — parse, plan, lower,
   elide, verify, run — on the same session, each a span whose parent is
   the statement's "db.exec" span. Self time of "db.exec" is its
   duration minus the durations of its stage spans. DML has no stage
   functions below [Database.exec]; its statement span stands alone.

   Statements alternate between traced and untraced; the difference of
   their statement times is the tracing overhead. *)

open Workload
module D = Db.Database
module Wal = Audit_log.Wal
module Wire = Server.Wire

let now = Clock.now

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  stmt : int;  (* statement id shared by all spans of one statement *)
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let last_id = ref 0

let span ?(parent = 0) ~stmt name f =
  incr last_id;
  let id = !last_id in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  spans := { id; parent; stmt; name; t0; t1 } :: !spans;
  r

let write_spans path ~origin =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"stmt\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.id s.parent s.stmt s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. origin) *. 1e6))
        (List.rev !spans))

type result = {
  metrics : (string * float * string) list;  (* name, value, unit *)
  statements : int;
  failed : int;
  spans_written : int;
}

(* A layer-call wrapper: a span when traced, a plain call otherwise. *)
type wrap = { call : 'a. string -> (int -> 'a) -> 'a }

(* Per-statement shape-tagged samples, in microseconds. *)
type samples = { mutable xs : Stats.sample list }

let add s shape v = s.xs <- { Stats.t = 0.0; shape; v } :: s.xs
let samples () = { xs = [] }

let run w ~seed ~seconds ~span_file =
  let db = D.create () in
  (match Storage.Table.storage_of_string storage with
  | Some st -> D.set_storage_mode db st
  | None -> assert false);
  D.set_exec_mode db `Compiled;
  D.set_elision_mode db D.Elide_certified;
  let t = now () in
  ignore (Tpch.Dbgen.load db ~sf);
  let load_s = now () -. t in
  let live_words = float_of_int (Gc.stat ()).Gc.live_words in
  ignore (D.exec_script db (script (audited_statements w)));
  let wal_path = "replica.wal" in
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let wal, _ = Wal.open_ wal_path in
  let group = Wal.Group.create wal in
  D.set_deferred_evidence db true;
  let building = Hashtbl.create 512 in
  List.iter
    (fun row ->
      match row.(0) with
      | Storage.Value.Int k -> Hashtbl.replace building k ()
      | _ -> ())
    (D.query db "SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'");
  let shape = shape ~building in
  let s = D.create_session ~session_id:1 db in
  D.set_verify_plans s D.Strict;
  let ae = D.audit_expr db audit_name in
  let infos =
    [
      {
        Analysis.Independence.name = ae.Audit_core.Audit_expr.name;
        sensitive_table = ae.Audit_core.Audit_expr.sensitive_table;
        partition_by = ae.Audit_core.Audit_expr.partition_by;
        definition = ae.Audit_core.Audit_expr.definition;
      };
    ]
  in
  let specs =
    [
      {
        Analysis.Plan_verify.name = ae.Audit_core.Audit_expr.name;
        sensitive_table = ae.Audit_core.Audit_expr.sensitive_table;
        partition_by = ae.Audit_core.Audit_expr.partition_by;
      };
    ]
  in
  let commute = Analysis.Plan_verify.hcn_commute in
  let lanes = [| stream w ~seed ~lane:0; stream w ~seed ~lane:1 |] in
  let stmt_traced = samples () and stmt_plain = samples () in
  let exec_us = samples () and self_us = samples () and submit_us = samples () in
  let served_us = samples () in
  let wire_us = samples () and parse_us = samples () and plan_us = samples () in
  let lower_us = samples () and elide_us = samples () and verify_us = samples () in
  let run_us = samples () in
  let selects = ref 0 and scanned = ref 0 and materialized = ref 0 in
  let minor = ref 0.0 and probes = ref 0 and hits = ref 0 in
  let decisions = ref 0 and independent = ref 0 in
  let failed = ref 0 and n = ref 0 in
  let first_of_shape = Hashtbl.create 8 in
  (* One request as serverd serves it; [sp] wraps each layer call. *)
  let serve { call = sp } st seq exec_id =
    let line =
      match
        sp "server.wire" (fun _ ->
            Wire.decode_request (Wire.encode_request (Wire.Exec { seq; line = st.sql })))
      with
      | Ok (Wire.Exec { line; _ }) -> line
      | _ -> failwith "request codec round-trip failed"
    in
    let resp =
      match
        sp "db.exec" (fun id ->
            exec_id := id;
            D.exec s line)
      with
      | r -> Wire.Result (D.result_to_string r)
      | exception e -> Wire.Failed (Server.Session.render_error e)
    in
    let evidence = D.take_pending_evidence s in
    if evidence <> [] then sp "audit_log.submit" (fun _ -> Wal.Group.submit group evidence);
    match sp "server.wire" (fun _ -> Wire.decode_response (Wire.encode_response resp)) with
    | Ok (Wire.Result text) when reply_ok st text -> ()
    | _ -> incr failed
  in
  let replay_stages st seq exec_id =
    let durations = ref [] in
    let stage name f =
      span ~parent:exec_id ~stmt:seq name (fun _ ->
          let t0 = now () in
          let r = f () in
          durations := (name, (now () -. t0) *. 1e6) :: !durations;
          r)
    in
    (match stage "sql.parse" (fun () -> Sql.Parser.statement st.sql) with
    | Sql.Ast.S_select q ->
      let plan = stage "plan.plan" (fun () -> D.plan_query s q) in
      let phys = stage "plan.lower" (fun () -> D.physical s plan) in
      let ds, elided =
        stage "analysis.elide" (fun () ->
            let ds =
              Analysis.Independence.analyze_plan ~catalog:(D.catalog s) ~audits:infos phys
            in
            (ds, Analysis.Elide.apply ~decisions:ds phys))
      in
      decisions := !decisions + List.length ds;
      List.iter
        (fun (d : Analysis.Independence.decision) ->
          if d.verdict = Analysis.Independence.Independent then incr independent)
        ds;
      let vs =
        stage "analysis.verify" (fun () ->
            Analysis.Plan_verify.verify_logical ~commute ~audits:specs plan
            @ Analysis.Plan_verify.verify ~commute
                ~certificates:elided.Analysis.Elide.certificates ~audits:specs
                elided.Analysis.Elide.plan)
      in
      if vs <> [] then incr failed;
      let ctx = D.context s in
      D.install_audit_sets s;
      Exec.Exec_ctx.reset_query_state ctx;
      let m0 = Gc.minor_words () in
      ignore
        (stage "exec.run" (fun () ->
             Exec.Compiled_exec.run_list ctx elided.Analysis.Elide.plan));
      minor := !minor +. (Gc.minor_words () -. m0);
      incr selects;
      scanned := !scanned + ctx.Exec.Exec_ctx.rows_scanned;
      materialized := !materialized + ctx.Exec.Exec_ctx.tuples_materialized;
      probes := !probes + ctx.Exec.Exec_ctx.audit_probes;
      hits := !hits + ctx.Exec.Exec_ctx.audit_hits
    | _ -> failwith "a SELECT statement did not parse as a query");
    !durations
  in
  let origin = now () in
  let until = origin +. seconds in
  while now () < until do
    let st = next lanes.(!n mod 2) in
    incr n;
    let seq = !n and sh = shape st in
    if not (Hashtbl.mem first_of_shape sh) then Hashtbl.replace first_of_shape sh st;
    let exec_id = ref 0 in
    (* Trace every other pair of statements, so that both lanes (and,
       in audited_writes, every step of the cycle) are traced alike. *)
    if seq / 2 mod 2 = 0 then begin
      let t0 = now () in
      serve { call = (fun _ f -> f 0) } st seq exec_id;
      add stmt_plain sh ((now () -. t0) *. 1e6)
    end
    else begin
      span ~stmt:seq "stmt" (fun root ->
          serve { call = (fun name f -> span ~parent:root ~stmt:seq name f) } st seq
            exec_id);
      (* The spans just recorded, newest first, down to the root. *)
      let rec mine acc = function
        | sp :: rest when sp.stmt = seq -> mine (sp :: acc) rest
        | _ -> acc
      in
      let dur sp = (sp.t1 -. sp.t0) *. 1e6 in
      let recorded = mine [] !spans in
      let total name =
        Stats.sum (List.filter_map (fun sp -> if sp.name = name then Some (dur sp) else None) recorded)
      in
      List.iter
        (fun sp -> if sp.name = "stmt" then add stmt_traced sh (dur sp))
        recorded;
      add exec_us sh (total "db.exec");
      add wire_us sh (total "server.wire");
      if List.exists (fun sp -> sp.name = "audit_log.submit") recorded then
        add submit_us sh (total "audit_log.submit");
      add served_us sh (total "db.exec" +. total "audit_log.submit");
      let stages = if is_select st then replay_stages st seq !exec_id else [] in
      let stage name = List.assoc_opt name stages in
      let put s name = Option.iter (add s sh) (stage name) in
      put parse_us "sql.parse";
      put plan_us "plan.plan";
      put lower_us "plan.lower";
      put elide_us "analysis.elide";
      put verify_us "analysis.verify";
      put run_us "exec.run";
      add self_us sh (total "db.exec" -. Stats.sum (List.map snd stages))
    end
  done;
  Wal.Group.close group;
  (* q-error: estimated vs actual rows per operator, from a separate
     metrics-collecting session (its clock reads stay out of the
     timings above), over the first statement of every SELECT shape. *)
  let qs = D.create_session ~session_id:2 db in
  D.set_deferred_evidence qs false;
  D.set_collect_metrics qs true;
  let qerror = ref 1.0 in
  Hashtbl.iter
    (fun _ st ->
      if is_select st then begin
        ignore (D.exec qs st.sql);
        List.iter
          (fun (r : Exec.Metrics.op_report) ->
            let e = Float.max 1.0 r.Exec.Metrics.r_est_rows in
            let a = Float.max 1.0 (float_of_int r.Exec.Metrics.r_rows) in
            qerror := Float.max !qerror (Float.max (e /. a) (a /. e)))
          (Option.value (D.last_query_stats qs) ~default:[])
      end)
    first_of_shape;
  let spans_written = List.length !spans in
  write_spans span_file ~origin;
  spans := [];
  let summary s = Stats.shape_pct s.xs 0.5 in
  (* Self time can be negative for a single statement (replayed stages
     run on warm caches), so shapes are averaged, not geometric-meaned. *)
  let shape_mean s =
    Stats.mean (List.map Stats.median (Stats.by_shape s.xs))
  in
  let per_select x = float_of_int x /. float_of_int (max 1 !selects) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    metrics =
      [
        ("sql.parse_us", summary parse_us, "us");
        ("plan.plan_us", summary plan_us, "us");
        ("plan.lower_us", summary lower_us, "us");
        ("plan.qerror_max", !qerror, "ratio");
        ("analysis.elide_us", summary elide_us, "us");
        ("analysis.verify_us", summary verify_us, "us");
        ("analysis.elided_frac", ratio !independent !decisions, "ratio");
        ("exec.run_us", summary run_us, "us");
        ("exec.rows_scanned_per_op", per_select !scanned, "count");
        ("exec.tuples_materialized_per_op", per_select !materialized, "count");
        ("exec.minor_words_per_op", !minor /. float_of_int (max 1 !selects), "words");
        ("core.probes_per_op", per_select !probes, "count");
        ("core.probe_hit_ratio", ratio !hits !probes, "ratio");
        ("db.exec_us", summary exec_us, "us");
        ("db.served_us", summary served_us, "us");
        ("db.self_us", shape_mean self_us, "us");
        ("audit_log.submit_us", (if submit_us.xs = [] then 0.0 else summary submit_us), "us");
        ("server.wire_us", summary wire_us, "us");
        ("storage.load_s", load_s, "s");
        ("storage.live_words", live_words, "words");
        ("trace.overhead_frac", (summary stmt_traced /. summary stmt_plain) -. 1.0, "ratio");
        ("trace.statements", float_of_int !n, "count");
      ];
    statements = !n;
    failed = !failed;
    spans_written;
  }
