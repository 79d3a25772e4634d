(** Push-based compiled execution (data-centric): each pipeline between
    blocking operators becomes one fused closure, rows flow through plain
    function composition instead of per-operator getNext virtual calls.

    The engine replays the row engine's observable behaviour exactly:

    - {e open-time effect order}: a factory invocation performs the same
      work, in the same order, as opening the corresponding row cursor —
      blocking operators build/drain at open (hash joins build the right
      side before opening the left, Sort/TopK/HashAgg consume their child
      at open, Except/Intersect materialize the right side first), so
      budget cancellations land at the same point in the same order;
    - {e budget accounting}: [note_scanned] per base-table row before the
      row is pushed, [note_materialized] at exactly the row engine's
      buffering points;
    - {e audit evidence}: the pipeline body calls the same
      {!Exec_ctx.probe} the row engine does;
    - {e metrics}: nodes are registered in the row engine's registration
      order (pre-order; delegated subtrees register through
      {!Executor.compile} at the same traversal position) and per-node
      row counts match. Time is attributed per pipeline: blocking
      operators record their build phase, the root records the whole run.

    Step-aside: [Apply], [Index_nl_join] and bare [Limit] subtrees run on
    the row engine behind a pull→push adapter (their protocols — the
    correlated parameter stack, the probe-chain metrics contract and
    stop-pulling early exit — are pull-bound); an armed fault kit
    delegates the whole plan so per-operator fault sites are unchanged. *)

open Storage
open Plan

type sink = Tuple.t -> unit
type source = sink -> unit
type factory = unit -> source

let scan_chunk = 256

let resolve_table ctx table =
  match Catalog.find_opt ctx.Exec_ctx.catalog table with
  | Some t -> t
  | None ->
    raise (Executor.Exec_error (Printf.sprintf "unknown table %s" table))

let hide_for ctx table =
  match ctx.Exec_ctx.hide with
  | Some (ht, col, v)
    when String.lowercase_ascii ht = String.lowercase_ascii table ->
    Some (col, v)
  | _ -> None

(* Drain a child source into a buffer a blocking operator will hold live,
   charging each tuple against the memory budget (Executor.drain_tracked). *)
let drain_tracked ctx (src : source) : Tuple.t list =
  let acc = ref [] in
  src (fun row ->
      Exec_ctx.note_materialized ctx;
      acc := row :: !acc);
  List.rev !acc

(* Stats lookup that compiles away when collection is off. *)
let stats_of ctx node =
  if Metrics.enabled ctx.Exec_ctx.metrics then
    Some (Metrics.register ctx.Exec_ctx.metrics node)
  else None

let count_row st =
  match st with
  | Some s -> s.Metrics.rows <- s.Metrics.rows + 1
  | None -> ()

(* Time a blocking operator's build phase onto its own stats record, so
   EXPLAIN ANALYZE shows per-pipeline time at each pipeline boundary. *)
let timed st f =
  match st with
  | None -> f ()
  | Some s ->
    let t0 = Metrics.now_s () in
    let r = f () in
    s.Metrics.time_s <- s.Metrics.time_s +. (Metrics.now_s () -. t0);
    r

(* Pull→push adapter around the row engine, for subtrees the push engine
   steps aside from. [Executor.compile] registers the subtree's metrics
   and applies its own guard/fault wrappers. *)
let delegate ctx plan : factory =
  let f = Executor.compile ctx plan in
  fun () ->
    let c = f () in
    fun sink ->
      let rec loop () =
        match c () with
        | None -> ()
        | Some row ->
          sink row;
          loop ()
      in
      loop ()

let rec compile (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
  match plan.Physical.op with
  (* Pull-bound protocols: step aside to the row engine. *)
  | Physical.Apply _ | Physical.Index_nl_join _ | Physical.Limit _ ->
    delegate ctx plan
  | _ when Engine_core.Faultkit.armed ctx.Exec_ctx.faults ->
    (* Per-operator fallback: fault sites live on row-engine getNext. *)
    delegate ctx plan
  | _ ->
    let base =
      if not (Metrics.enabled ctx.Exec_ctx.metrics) then compile_op ctx plan
      else begin
        let st = Metrics.register ctx.Exec_ctx.metrics plan in
        let f = compile_op ctx plan in
        fun () ->
          st.Metrics.opens <- st.Metrics.opens + 1;
          let src = f () in
          fun sink ->
            src (fun row ->
                st.Metrics.rows <- st.Metrics.rows + 1;
                sink row)
      end
    in
    if not (Exec_ctx.guards_armed ctx) then base
    else
      fun () ->
        Exec_ctx.check_deadline ctx;
        let src = base () in
        fun sink ->
          src (fun row ->
              Exec_ctx.check_guards ctx;
              sink row)

and compile_op (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
  match plan.Physical.op with
  | Physical.Seq_scan { table; cols; _ } ->
    if table = "$dual" then fun () sink -> sink [||]
    else
      fun () ->
        let t = resolve_table ctx table in
        let hide = hide_for ctx table in
        fun sink -> scan_source ctx t ~hide ~cols sink
  | Physical.Filter
      { pred; child = { Physical.op = Physical.Seq_scan { table; cols; _ }; _ }
                      as scan_node }
    when table <> "$dual" ->
    compile_filter_scan ctx ~pred ~table ~cols ~scan_node
  | Physical.Filter { pred; child } ->
    let cfact = compile ctx child in
    let test = Expr_compile.compile_pred ctx pred in
    fun () ->
      let csrc = cfact () in
      fun sink -> csrc (fun row -> if test row then sink row)
  | Physical.Project { cols; child } ->
    let cfact = compile ctx child in
    let exprs =
      Array.of_list (List.map (fun (e, _) -> Expr_compile.compile ctx e) cols)
    in
    fun () ->
      let csrc = cfact () in
      fun sink -> csrc (fun row -> sink (Array.map (fun f -> f row) exprs))
  | Physical.Hash_join { kind; lkeys; rkeys; residual; left; right; right_arity }
    ->
    let st = stats_of ctx plan in
    let lfact = compile ctx left in
    let rfact = compile ctx right in
    let lkeys = Array.map (Expr_compile.compile ctx) lkeys in
    let rkeys = Array.map (Expr_compile.compile ctx) rkeys in
    let residual = Option.map (Expr_compile.compile_pred ctx) residual in
    let null_pad = Array.make right_arity Value.Null in
    fun () ->
      (* Build the right side at open, as the row engine does. *)
      let tbl = Tuple.Hashtbl_t.create 1024 in
      timed st (fun () ->
          let rsrc = rfact () in
          rsrc (fun row ->
              Exec_ctx.note_materialized ctx;
              let k = Array.map (fun f -> f row) rkeys in
              if not (Array.exists Value.is_null k) then
                Tuple.Hashtbl_t.replace tbl k
                  (row
                  :: (try Tuple.Hashtbl_t.find tbl k with Not_found -> []))));
      let probe lrow =
        let k = Array.map (fun f -> f lrow) lkeys in
        if Array.exists Value.is_null k then []
        else
          match Tuple.Hashtbl_t.find_opt tbl k with
          | Some rows -> List.rev rows
          | None -> []
      in
      let lsrc = lfact () in
      fun sink -> lsrc (join_emit ~kind ~null_pad ~residual ~probe sink)
  | Physical.Nl_join { kind; pred; left; right; right_arity } ->
    let st = stats_of ctx plan in
    let lfact = compile ctx left in
    let rfact = compile ctx right in
    let pred = Option.map (Expr_compile.compile_pred ctx) pred in
    let null_pad = Array.make right_arity Value.Null in
    fun () ->
      let right_rows = timed st (fun () -> drain_tracked ctx (rfact ())) in
      let probe _ = right_rows in
      let lsrc = lfact () in
      fun sink -> lsrc (join_emit ~kind ~null_pad ~residual:pred ~probe sink)
  | Physical.Hash_semi_join { anti; left; left_key; right; right_key } ->
    let st = stats_of ctx plan in
    let lfact = compile ctx left in
    let rfact = compile ctx right in
    let lkey = Expr_compile.compile ctx left_key in
    let rkey = Expr_compile.compile ctx right_key in
    fun () ->
      let keys = Value.Hashtbl_v.create 256 in
      timed st (fun () ->
          let rsrc = rfact () in
          rsrc (fun row ->
              let k = rkey row in
              if not (Value.is_null k) then begin
                Exec_ctx.note_materialized ctx;
                Value.Hashtbl_v.replace keys k ()
              end));
      let lsrc = lfact () in
      fun sink ->
        lsrc (fun row ->
            let k = lkey row in
            let matched =
              (not (Value.is_null k)) && Value.Hashtbl_v.mem keys k
            in
            if matched <> anti then sink row)
  | Physical.Hash_agg { keys; aggs; child } -> (
    (* The generic path is always compiled (and its operators registered
       for metrics); the fused columnar kernel takes over at open time
       when the store and the expression shapes allow it. *)
    let generic = compile_group ctx plan keys aggs child in
    match fused_scalar_agg ctx plan keys aggs child with
    | None -> generic
    | Some open_fused ->
      fun () ->
        (match open_fused () with
        | Some src -> src
        | None -> generic ()))
  | Physical.Sort { keys; child } ->
    let st = stats_of ctx plan in
    let cfact = compile ctx child in
    let sort_rows = Executor.compile_sorter ctx keys in
    fun () ->
      let sorted =
        timed st (fun () -> sort_rows (drain_tracked ctx (cfact ())))
      in
      fun sink -> List.iter sink sorted
  | Physical.Top_k { n; keys; child } ->
    let st = stats_of ctx plan in
    let cfact = compile ctx child in
    let sort_rows = Executor.compile_sorter ctx keys in
    fun () ->
      let sorted =
        timed st (fun () -> sort_rows (drain_tracked ctx (cfact ())))
      in
      fun sink ->
        let left = ref n in
        List.iter
          (fun row ->
            if !left > 0 then begin
              decr left;
              sink row
            end)
          sorted
  | Physical.Limit _ | Physical.Apply _ | Physical.Index_nl_join _ ->
    assert false (* delegated in [compile] *)
  | Physical.Distinct child ->
    let cfact = compile ctx child in
    fun () ->
      let csrc = cfact () in
      fun sink ->
        let seen = Tuple.Hashtbl_t.create 256 in
        csrc (fun row ->
            if not (Tuple.Hashtbl_t.mem seen row) then begin
              Tuple.Hashtbl_t.replace seen row ();
              sink row
            end)
  | Physical.Set_op { op; left; right } -> (
    let st = stats_of ctx plan in
    let lfact = compile ctx left in
    let rfact = compile ctx right in
    match op with
    | Sql.Ast.Union_all ->
      fun () ->
        let lsrc = lfact () in
        let rsrc = rfact () in
        fun sink ->
          lsrc sink;
          rsrc sink
    | Sql.Ast.Union ->
      fun () ->
        let lsrc = lfact () in
        let rsrc = rfact () in
        fun sink ->
          let seen = Tuple.Hashtbl_t.create 256 in
          let dedup row =
            if not (Tuple.Hashtbl_t.mem seen row) then begin
              Tuple.Hashtbl_t.replace seen row ();
              sink row
            end
          in
          lsrc dedup;
          rsrc dedup
    | Sql.Ast.Except | Sql.Ast.Intersect ->
      let keep_if_in_right = op = Sql.Ast.Intersect in
      fun () ->
        (* Materialize the right side at open, before the left opens. *)
        let right_set = Tuple.Hashtbl_t.create 256 in
        timed st (fun () ->
            let rsrc = rfact () in
            rsrc (fun row ->
                Exec_ctx.note_materialized ctx;
                Tuple.Hashtbl_t.replace right_set row ()));
        let lsrc = lfact () in
        fun sink ->
          let emitted = Tuple.Hashtbl_t.create 256 in
          lsrc (fun row ->
              if
                Tuple.Hashtbl_t.mem right_set row = keep_if_in_right
                && not (Tuple.Hashtbl_t.mem emitted row)
              then begin
                Tuple.Hashtbl_t.replace emitted row ();
                sink row
              end))
  | Physical.Audit_probe { audit_name; id_col; child } ->
    let st = Metrics.find ctx.Exec_ctx.metrics plan in
    let cfact = compile ctx child in
    fun () ->
      let slot = Executor.audit_slot ctx audit_name in
      let csrc = cfact () in
      fun sink ->
        csrc (fun row ->
            Exec_ctx.probe ctx slot st row.(id_col);
            sink row)

(* The base-table scan loop driving a pipeline: chunked row fills (no
   per-row Option or closure allocation). With any guard armed the scan
   budget is charged per row before the push — identical rows_scanned
   and cancellation point to the row engine's cursor; with no guards
   armed nothing can cancel mid-scan, so the charge collapses to one
   O(1) [note_scanned_many] per chunk (the batch engine's contract) and
   the final counter is the same. The [?hide] virtual delete goes
   through the cursor, like the row engine. *)
and scan_source ctx t ~hide ~cols sink =
  match hide with
  | Some _ ->
    let c = Table.cursor ?hide t in
    let rec loop () =
      match c () with
      | None -> ()
      | Some row ->
        Exec_ctx.note_scanned ctx;
        sink
          (match cols with
          | None -> row
          | Some idxs -> Tuple.project row idxs);
        loop ()
    in
    loop ()
  | None ->
    let buf = Array.make scan_chunk [||] in
    let slot = ref 0 in
    let per_row = Exec_ctx.guards_armed ctx in
    let rec loop () =
      let n =
        match cols with
        | None -> Table.fill_chunk t ~slot buf ~max:scan_chunk
        | Some idxs ->
          Table.fill_chunk_proj t ~slot buf ~max:scan_chunk ~cols:idxs
      in
      if n > 0 then begin
        if per_row then
          for i = 0 to n - 1 do
            Exec_ctx.note_scanned ctx;
            sink buf.(i)
          done
        else begin
          Exec_ctx.note_scanned_many ctx n;
          for i = 0 to n - 1 do
            sink buf.(i)
          done
        end;
        loop ()
      end
    in
    loop ()

(* Fused Filter-over-scan pipeline head. On a columnar table the
   predicate compiles to a slot-level {!Col_pred} kernel: only surviving
   slots are materialized (late materialization without chunk or
   selection-vector bookkeeping — this is where the push engine beats
   the batch engine on selective scans). On heap tables the predicate is
   remapped through the scan projection ({!Scalar.shift_cols}) and
   tested against the base row, so only survivors pay the projection
   allocation. Budget charging is per row whenever a guard is armed
   (cancellation-point parity with the row engine), one bulk charge
   otherwise. The scan node's metrics are maintained inline so EXPLAIN
   ANALYZE still shows scanned-vs-surviving rows per node. *)
and compile_filter_scan ctx ~pred ~table ~cols ~scan_node : factory =
  let scan_st = stats_of ctx scan_node in
  let raw_pred =
    match cols with
    | None -> pred
    | Some idxs -> Scalar.shift_cols (fun i -> idxs.(i)) pred
  in
  let test_raw = Expr_compile.compile_pred ctx raw_pred in
  let project row =
    match cols with None -> row | Some idxs -> Tuple.project row idxs
  in
  fun () ->
    let t = resolve_table ctx table in
    let hide = hide_for ctx table in
    (match scan_st with
    | Some s -> s.Metrics.opens <- s.Metrics.opens + 1
    | None -> ());
    let guards = Exec_ctx.guards_armed ctx in
    let kernel =
      match hide with
      | Some _ -> None
      | None ->
        if ctx.Exec_ctx.interpret_exprs then None
        else (
          match Table.column_store t with
          | None -> None
          | Some cs ->
            Option.map (fun k -> (cs, k)) (Col_pred.compile ctx cs raw_pred))
    in
    match kernel with
    | Some (cs, k) ->
      fun sink ->
        let stop = Table.next_slot t in
        if guards then
          for s = 0 to stop - 1 do
            if Column_store.is_live cs s then begin
              Exec_ctx.note_scanned ctx;
              Exec_ctx.check_guards ctx;
              count_row scan_st;
              if k s = Col_pred.holds then
                sink
                  (match cols with
                  | None -> Column_store.read cs s
                  | Some idxs -> Column_store.read_proj cs idxs s)
            end
          done
        else begin
          let scanned = ref 0 in
          for s = 0 to stop - 1 do
            if Column_store.is_live cs s then begin
              incr scanned;
              if k s = Col_pred.holds then
                sink
                  (match cols with
                  | None -> Column_store.read cs s
                  | Some idxs -> Column_store.read_proj cs idxs s)
            end
          done;
          Exec_ctx.note_scanned_many ctx !scanned;
          match scan_st with
          | Some s -> s.Metrics.rows <- s.Metrics.rows + !scanned
          | None -> ()
        end
    | None -> (
      match hide with
      | Some _ ->
        (* The virtual-delete path stays on the cursor, like the row
           engine; survivors-only projection still applies. *)
        fun sink ->
          let c = Table.cursor ?hide t in
          let rec loop () =
            match c () with
            | None -> ()
            | Some row ->
              Exec_ctx.note_scanned ctx;
              if guards then Exec_ctx.check_guards ctx;
              count_row scan_st;
              if test_raw row then sink (project row);
              loop ()
          in
          loop ()
      | None ->
        fun sink ->
          let buf = Array.make scan_chunk [||] in
          let slot = ref 0 in
          let rec loop () =
            let n = Table.fill_chunk t ~slot buf ~max:scan_chunk in
            if n > 0 then begin
              if guards then
                for i = 0 to n - 1 do
                  Exec_ctx.note_scanned ctx;
                  Exec_ctx.check_guards ctx;
                  count_row scan_st;
                  let row = buf.(i) in
                  if test_raw row then sink (project row)
                done
              else begin
                Exec_ctx.note_scanned_many ctx n;
                (match scan_st with
                | Some s -> s.Metrics.rows <- s.Metrics.rows + n
                | None -> ());
                for i = 0 to n - 1 do
                  let row = buf.(i) in
                  if test_raw row then sink (project row)
                done
              end;
              loop ()
            end
          in
          loop ())

(* Per-left-row probe emission shared by hash and nested-loop joins:
   candidates joined in arrival order, residual applied on the combined
   row, LEFT JOIN null-pads when nothing survives (Executor.join_emit). *)
and join_emit ~kind ~null_pad ~residual ~probe sink : sink =
 fun lrow ->
  let cands = probe lrow in
  let joined =
    List.filter_map
      (fun rrow ->
        let combined = Tuple.append lrow rrow in
        match residual with
        | None -> Some combined
        | Some test -> if test combined then Some combined else None)
      cands
  in
  match (joined, kind) with
  | [], Logical.J_left -> sink (Tuple.append lrow null_pad)
  | _, _ -> List.iter sink joined

(* Fused scalar aggregation: a scalar Hash_agg over (Filter over)
   Seq_scan on a columnar table collapses to one pass over the column
   vectors — the predicate as a {!Col_pred} kernel over slot numbers and
   the aggregate arguments as unboxed {!Col_pred.compile_num} kernels
   feeding {!Aggregate.add_int}/{!add_float}. No input tuple is ever
   materialized, and unlike the batch engine's equivalent there is no
   selection vector or chunk bookkeeping between predicate and update.

   The compile-time half recognizes the plan shape (an Audit_probe child
   breaks the pattern and keeps its evidence; an armed fault kit never
   reaches here — the whole plan is delegated). The open-time half
   checks everything session-dependent: heap tables, a [?hide]
   partition, the interpreter oracle, or any armed guard (whose
   cancellation must land on the exact row) fall back to the generic
   push pipeline. The bypassed scan/filter operators keep their metrics
   entries (registered by the generic compile) with rows = scanned /
   survivors, as in the unfused pipeline. *)
and fused_scalar_agg ctx plan keys aggs child : (unit -> source option) option
    =
  if keys <> [] then None
  else
    let parts =
      match child.Physical.op with
      | Physical.Seq_scan { table; cols; _ } when table <> "$dual" ->
        Some (table, cols, None, child)
      | Physical.Filter
          { pred;
            child =
              { Physical.op = Physical.Seq_scan { table; cols; _ }; _ } as scan
          }
        when table <> "$dual" ->
        Some (table, cols, Some pred, scan)
      | _ -> None
    in
    match parts with
    | None -> None
    | Some (table, cols, pred, scan_node) ->
      let shift e =
        match cols with
        | None -> e
        | Some idxs -> Scalar.shift_cols (fun i -> idxs.(i)) e
      in
      let raw_pred = Option.map shift pred in
      let agg_arr = Array.of_list aggs in
      let raw_args =
        Array.map (fun a -> Option.map shift a.Logical.arg) agg_arr
      in
      let agg_st =
        if Metrics.enabled ctx.Exec_ctx.metrics then
          Metrics.find ctx.Exec_ctx.metrics plan
        else None
      in
      Some
        (fun () ->
          if ctx.Exec_ctx.interpret_exprs || Exec_ctx.guards_armed ctx then
            None
          else
            let t = resolve_table ctx table in
            if hide_for ctx table <> None then None
            else
              match Table.column_store t with
              | None -> None
              | Some cs -> (
                let pred_kern =
                  match raw_pred with
                  | None -> Some None
                  | Some p -> (
                    match Col_pred.compile ctx cs p with
                    | Some k -> Some (Some k)
                    | None -> None)
                in
                match pred_kern with
                | None -> None
                | Some pred_kern -> (
                  let upd = function
                    | None -> Some (fun st _ -> Aggregate.update st None)
                    | Some e -> (
                      match Col_pred.compile_num ctx cs e with
                      | Some (Col_pred.Kint f, nullk) ->
                        Some
                          (fun st s ->
                            if not (nullk s) then Aggregate.add_int st (f s))
                      | Some (Col_pred.Kfloat f, nullk) ->
                        Some
                          (fun st s ->
                            if not (nullk s) then Aggregate.add_float st (f s))
                      | None -> None)
                  in
                  let upds = Array.map upd raw_args in
                  if Array.exists Option.is_none upds then None
                  else begin
                    let upds = Array.map Option.get upds in
                    let nagg = Array.length upds in
                    let states = Array.map Aggregate.create agg_arr in
                    let seen = ref false in
                    let scanned = ref 0 in
                    let kept = ref 0 in
                    (* The aggregation runs at open, where the generic
                       scalar path drains its child. *)
                    timed agg_st (fun () ->
                        let stop = Table.next_slot t in
                        match pred_kern with
                        | Some k ->
                          for s = 0 to stop - 1 do
                            if Column_store.is_live cs s then begin
                              incr scanned;
                              if k s = Col_pred.holds then begin
                                incr kept;
                                if not !seen then begin
                                  seen := true;
                                  Exec_ctx.note_materialized ctx
                                end;
                                for i = 0 to nagg - 1 do
                                  (Array.unsafe_get upds i)
                                    (Array.unsafe_get states i)
                                    s
                                done
                              end
                            end
                          done
                        | None ->
                          for s = 0 to stop - 1 do
                            if Column_store.is_live cs s then begin
                              incr scanned;
                              incr kept;
                              if not !seen then begin
                                seen := true;
                                Exec_ctx.note_materialized ctx
                              end;
                              for i = 0 to nagg - 1 do
                                (Array.unsafe_get upds i)
                                  (Array.unsafe_get states i)
                                  s
                              done
                            end
                          done);
                    Exec_ctx.note_scanned_many ctx !scanned;
                    if Metrics.enabled ctx.Exec_ctx.metrics then begin
                      (match Metrics.find ctx.Exec_ctx.metrics scan_node with
                      | Some s ->
                        s.Metrics.opens <- s.Metrics.opens + 1;
                        s.Metrics.rows <- s.Metrics.rows + !scanned
                      | None -> ());
                      match pred with
                      | None -> ()
                      | Some _ -> (
                        match Metrics.find ctx.Exec_ctx.metrics child with
                        | Some s ->
                          s.Metrics.opens <- s.Metrics.opens + 1;
                          s.Metrics.rows <- s.Metrics.rows + !kept
                        | None -> ())
                    end;
                    let out = Array.map Aggregate.final states in
                    Some (fun sink -> sink out)
                  end)))

and compile_group ctx plan keys aggs child : factory =
  let st = stats_of ctx plan in
  let cfact = compile ctx child in
  let key_exprs =
    Array.of_list (List.map (fun (e, _) -> Expr_compile.compile ctx e) keys)
  in
  let agg_list = Array.of_list aggs in
  let agg_args =
    Array.map
      (fun a -> Option.map (Expr_compile.compile ctx) a.Logical.arg)
      agg_list
  in
  let update_states states row =
    Array.iteri
      (fun i s ->
        let v =
          match agg_args.(i) with None -> None | Some f -> Some (f row)
        in
        Aggregate.update s v)
      states
  in
  if Array.length key_exprs = 0 then
    (* Scalar aggregate: no grouping hashtable in the loop body. *)
    fun () ->
      let states = ref None in
      timed st (fun () ->
          let csrc = cfact () in
          csrc (fun row ->
              let sts =
                match !states with
                | Some s -> s
                | None ->
                  Exec_ctx.note_materialized ctx;
                  let s = Array.map Aggregate.create agg_list in
                  states := Some s;
                  s
              in
              update_states sts row));
      let out =
        match !states with
        | Some sts -> Array.map Aggregate.final sts
        | None ->
          (* Scalar aggregate over empty input: one default row. *)
          Array.map (fun a -> Aggregate.final (Aggregate.create a)) agg_list
      in
      fun sink -> sink out
  else
    fun () ->
      let groups : Aggregate.state array Tuple.Hashtbl_t.t =
        Tuple.Hashtbl_t.create 256
      in
      let order = ref [] in
      timed st (fun () ->
          let csrc = cfact () in
          csrc (fun row ->
              let k = Array.map (fun f -> f row) key_exprs in
              let states =
                match Tuple.Hashtbl_t.find_opt groups k with
                | Some s -> s
                | None ->
                  Exec_ctx.note_materialized ctx;
                  let s = Array.map Aggregate.create agg_list in
                  Tuple.Hashtbl_t.replace groups k s;
                  order := k :: !order;
                  s
              in
              update_states states row));
      let pending =
        List.rev_map
          (fun k ->
            let states = Tuple.Hashtbl_t.find groups k in
            Tuple.append k (Array.map Aggregate.final states))
          !order
      in
      fun sink -> List.iter sink pending

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let native_root (plan : Physical.t) =
  match plan.Physical.op with
  | Physical.Apply _ | Physical.Index_nl_join _ | Physical.Limit _ -> false
  | _ -> true

(* Root-inclusive timing for EXPLAIN ANALYZE: the root stats record gets
   the whole run (delegated roots are timed by the row engine itself). *)
let timed_run ctx plan f =
  if
    Metrics.enabled ctx.Exec_ctx.metrics
    && native_root plan
    && not (Engine_core.Faultkit.armed ctx.Exec_ctx.faults)
  then begin
    let t0 = Metrics.now_s () in
    let r = f () in
    (match Metrics.find ctx.Exec_ctx.metrics plan with
    | Some st ->
      st.Metrics.time_s <- st.Metrics.time_s +. (Metrics.now_s () -. t0)
    | None -> ());
    r
  end
  else f ()

let run_list ctx plan : Tuple.t list =
  let fact = compile ctx plan in
  timed_run ctx plan (fun () ->
      let src = fact () in
      let acc = ref [] in
      src (fun row -> acc := row :: !acc);
      List.rev !acc)

let run_count ctx plan : int =
  let fact = compile ctx plan in
  timed_run ctx plan (fun () ->
      let src = fact () in
      let n = ref 0 in
      src (fun _ -> incr n);
      !n)
