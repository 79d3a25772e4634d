(** Vectorized (batch-at-a-time) execution of physical plans.

    The batch engine mirrors {!Executor} operator by operator but moves
    the getNext interface from [Tuple.t option] to [Batch.t option]: a
    scan fills chunks of up to {!Batch.chunk_size} rows, filters refine
    each chunk's selection vector in place, and the remaining operators
    work on whole chunks. Semantics are identical to the row engine —
    same emission order, same 3VL/NULL behaviour (expressions come from
    the same {!Expr_compile}), same audit-operator guarantees — which the
    differential harness ([test/test_batch_diff.ml]) enforces.

    Operators without batch kernels — [Apply] (correlated parameter
    protocol), [Nl_join]/[Index_nl_join]/[Hash_semi_join] (per-row probe
    loops) and [Limit] (early termination must stop the *row* stream
    mid-chunk, or an audit operator below the limit would record more
    accesses than the row engine) — delegate their whole subtree to the
    row executor behind a row→batch adapter, so every plan executes.

    [Filter] directly over [Seq_scan] fuses into a late-materialization
    kernel: the predicate is remapped through the scan projection and run
    on raw table rows, and only survivors are projected — the per-row
    materialization cost of filtered-out rows disappears.

    Budget accounting: with no row budget armed the scan charges each
    chunk in O(1) ({!Exec_ctx.note_scanned_many}); with one armed it
    falls back to per-row {!Exec_ctx.note_scanned}, and a budget trip
    mid-chunk emits the partial chunk first and re-raises on the next
    call — downstream audit operators see exactly the rows the row engine
    would have shown them before cancelling, and [rows_scanned] at
    cancellation is identical in both modes. *)

open Storage
open Plan

type bcursor = unit -> Batch.t option
type bfactory = unit -> bcursor

let cancelled = function
  | Engine_core.Engine_error.Error (Engine_core.Engine_error.Cancelled _) ->
    true
  | _ -> false

(* Re-chunk a row cursor (a delegated row-engine subtree) into batches.
   Each chunk is a fresh minor-heap array so the (usually young) tuples
   it buffers die with it instead of being promoted out of a reused
   major-heap buffer. *)
let batch_of_rows (c : Executor.cursor) : bcursor =
  fun () ->
    match c () with
    | None -> None
    | Some first ->
      let buf = Array.make Batch.chunk_size [||] in
      buf.(0) <- first;
      let n = ref 1 in
      let continue_ = ref true in
      while !continue_ && !n < Batch.chunk_size do
        match c () with
        | None -> continue_ := false
        | Some r ->
          buf.(!n) <- r;
          incr n
      done;
      Some (Batch.of_array buf !n)

(* Emit a materialized row list (sort/aggregation output) in fresh
   chunks. *)
let emit_rows (rows : Tuple.t list) : bcursor =
  let remaining = ref rows in
  fun () ->
    match !remaining with
    | [] -> None
    | _ ->
      let buf = Array.make Batch.chunk_size [||] in
      let n = ref 0 in
      let continue_ = ref true in
      while !continue_ && !n < Batch.chunk_size do
        match !remaining with
        | [] -> continue_ := false
        | r :: rest ->
          buf.(!n) <- r;
          incr n;
          remaining := rest
      done;
      Some (Batch.of_array buf !n)

(* Drain a batch cursor into a buffer a blocking operator will hold live,
   charging each tuple against the memory budget (same per-row accounting
   as the row engine's [drain_tracked]). *)
let drain_tracked ctx (c : bcursor) : Tuple.t list =
  let acc = ref [] in
  let rec go () =
    match c () with
    | None -> ()
    | Some b ->
      Batch.iter
        (fun r ->
          Exec_ctx.note_materialized ctx;
          acc := r :: !acc)
        b;
      go ()
  in
  go ();
  List.rev !acc

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | r :: rest -> r :: take (n - 1) rest

let resolve_table ctx table =
  match Catalog.find_opt ctx.Exec_ctx.catalog table with
  | Some t -> t
  | None -> raise (Executor.Exec_error (Printf.sprintf "unknown table %s" table))

(* Output arity of a physical subtree, when statically known — used to
   recognize identity projections. [None] is always safe (the projection
   just runs). *)
let rec out_arity (p : Physical.t) : int option =
  match p.Physical.op with
  | Physical.Seq_scan { schema; cols; _ } ->
    Some
      (match cols with
      | Some idxs -> Array.length idxs
      | None -> Schema.arity schema)
  | Physical.Project { cols; _ } -> Some (List.length cols)
  | Physical.Hash_agg { keys; aggs; _ } ->
    Some (List.length keys + List.length aggs)
  | Physical.Filter { child; _ }
  | Physical.Sort { child; _ }
  | Physical.Top_k { child; _ }
  | Physical.Limit { child; _ }
  | Physical.Distinct child
  | Physical.Audit_probe { child; _ } ->
    out_arity child
  | Physical.Hash_join { left; right_arity; _ }
  | Physical.Nl_join { left; right_arity; _ }
  | Physical.Index_nl_join { left; right_arity; _ } ->
    Option.map (fun l -> l + right_arity) (out_arity left)
  | Physical.Hash_semi_join { left; _ } -> out_arity left
  | Physical.Set_op { left; _ } -> out_arity left
  | Physical.Apply _ -> None

(* A projection that picks every input column in order is a per-batch
   copy with no effect; the batch engine drops it (the row engine keeps
   its per-row copy — it is the oracle). *)
let identity_project cols child =
  let rec cols_are_prefix i = function
    | [] -> true
    | (Plan.Scalar.Col j, _) :: rest -> j = i && cols_are_prefix (i + 1) rest
    | _ -> false
  in
  cols_are_prefix 0 cols && out_arity child = Some (List.length cols)

(* A projection whose every expression is a bare column reference is a
   permutation/selection of the input: [Some perm] maps each output
   position to its source column. The batch engine runs these as a
   tight index loop (and fuses them into hash-join output) instead of
   dispatching a compiled-expression closure per cell. *)
let projection_perm cols =
  let n = List.length cols in
  if n = 0 then None
  else
    let perm = Array.make n 0 in
    let rec go i = function
      | [] -> Some perm
      | (Plan.Scalar.Col j, _) :: rest ->
        perm.(i) <- j;
        go (i + 1) rest
      | _ -> None
    in
    go 0 cols

(* The (column, value) pair virtually deleted from scans of [table], if
   the offline auditor armed one (Q(D - t), Definition 2.3). *)
let hide_for ctx table =
  match ctx.Exec_ctx.hide with
  | Some (ht, col, v)
    when String.lowercase_ascii ht = String.lowercase_ascii table ->
    Some (col, v)
  | _ -> None

(* Metrics + guard wrapper, mirroring the row engine's [compile]: counted
   per batch call (rows accumulate by batch length), registration in plan
   pre-order. Operators whose subtree delegates to the row executor are
   *not* wrapped here — the row engine instruments them itself. *)
let rec compile (ctx : Exec_ctx.t) (plan : Physical.t) : bfactory =
  match plan.Physical.op with
  | Physical.Apply _ | Physical.Nl_join _ | Physical.Index_nl_join _
  | Physical.Hash_semi_join _ | Physical.Limit _ ->
    let f = Executor.compile ctx plan in
    fun () -> batch_of_rows (f ())
  | _ ->
    let base =
      if not (Metrics.enabled ctx.Exec_ctx.metrics) then compile_op ctx plan
      else begin
        let st = Metrics.register ctx.Exec_ctx.metrics plan in
        let f = compile_op ctx plan in
        fun () ->
          st.Metrics.opens <- st.Metrics.opens + 1;
          let c = f () in
          fun () ->
            let t0 = Metrics.now_s () in
            let r = c () in
            st.Metrics.time_s <- st.Metrics.time_s +. (Metrics.now_s () -. t0);
            st.Metrics.calls <- st.Metrics.calls + 1;
            (match r with
            | Some b ->
              st.Metrics.batches <- st.Metrics.batches + 1;
              st.Metrics.rows <- st.Metrics.rows + Batch.length b
            | None -> ());
            r
      end
    in
    let faults_armed = Engine_core.Faultkit.armed ctx.Exec_ctx.faults in
    if not (Exec_ctx.guards_armed ctx || faults_armed) then base
    else begin
      let label = Physical.label plan in
      fun () ->
        Exec_ctx.check_deadline ctx;
        let c = base () in
        fun () ->
          if faults_armed then
            Engine_core.Faultkit.on_get_next ctx.Exec_ctx.faults ~op:label;
          (* A batch call covers up to [chunk_size] rows, so the every-16th
             -tick guard would be far too coarse: check the deadline on
             every call instead. *)
          Exec_ctx.check_deadline ctx;
          c ()
    end

and compile_op (ctx : Exec_ctx.t) (plan : Physical.t) : bfactory =
  match plan.Physical.op with
  | Physical.Apply _ | Physical.Nl_join _ | Physical.Index_nl_join _
  | Physical.Hash_semi_join _ | Physical.Limit _ ->
    (* Handled by the row-engine adapter in [compile]. *)
    assert false
  | Physical.Seq_scan { table; cols; _ } -> compile_scan ctx table cols
  | Physical.Filter
      { pred; child = { Physical.op = Physical.Seq_scan { table; cols; _ }; _ }
                      as scan }
    when table <> "$dual"
         && not (Engine_core.Faultkit.armed ctx.Exec_ctx.faults) ->
    (* Late materialization: fill raw table rows, filter them, and apply
       the scan projection to the survivors only (the row engine must
       project every row before its filter can look at it). Skipped when
       fault injection is armed so per-operator fault sites stay
       identical to the row engine's. *)
    compile_filter_scan ctx ~scan ~table ~cols pred
  | Physical.Filter { pred; child } ->
    let cf = compile ctx child in
    let refine = Expr_compile.compile_pred_batch ctx pred in
    fun () ->
      let c = cf () in
      let rec next () =
        match c () with
        | None -> None
        | Some b ->
          refine b;
          if Batch.length b = 0 then next () else Some b
      in
      next
  | Physical.Project { cols; child }
    when (not ctx.Exec_ctx.interpret_exprs) && identity_project cols child ->
    (* No-op projection (e.g. the planner's SELECT-* Project stack):
       pass the child's batches through untouched. Skipped in
       interpreter-oracle mode, which must evaluate every expression. *)
    compile ctx child
  | Physical.Project
      { cols;
        child =
          {
            Physical.op =
              Physical.Hash_join
                { kind; lkeys; rkeys; residual = None; left; right; right_arity };
            _;
          } as jnode;
      }
    when (not ctx.Exec_ctx.interpret_exprs)
         && (not (Engine_core.Faultkit.armed ctx.Exec_ctx.faults))
         && projection_perm cols <> None
         && out_arity left <> None ->
    (* Fused projection-over-join: every joined tuple is built directly
       in projected order from the probe/build rows, skipping the
       intermediate full-width append and the second per-batch
       projection pass (SELECT * over a join always reorders build-side
       columns, so this is the hot path of every join query). Only for
       residual-free joins — a residual predicate evaluates on the
       unprojected appended tuple. The join node keeps its own metrics
       entry even though it no longer exists as a separate operator;
       skipped when fault injection is armed so per-operator fault
       sites stay identical to the row engine's. *)
    let perm =
      match projection_perm cols with Some p -> p | None -> assert false
    in
    let la = match out_arity left with Some a -> a | None -> assert false in
    let n = Array.length perm in
    let combine lrow rrow =
      let out = Array.make n Value.Null in
      for i = 0 to n - 1 do
        let j = Array.unsafe_get perm i in
        Array.unsafe_set out i
          (if j < la then Array.unsafe_get lrow j
           else Array.unsafe_get rrow (j - la))
      done;
      out
    in
    let generic =
      if not (Metrics.enabled ctx.Exec_ctx.metrics) then
        compile_hash_join ctx kind ~lkeys ~rkeys ~residual:None ~left ~right
          ~right_arity ~combine
      else begin
        (* Register the join node before its children, as [compile]
           would, so EXPLAIN ANALYZE keeps its operator order. *)
        let st = Metrics.register ctx.Exec_ctx.metrics jnode in
        let jf =
          compile_hash_join ctx kind ~lkeys ~rkeys ~residual:None ~left ~right
            ~right_arity ~combine
        in
        fun () ->
          st.Metrics.opens <- st.Metrics.opens + 1;
          let c = jf () in
          fun () ->
            let t0 = Metrics.now_s () in
            let r = c () in
            st.Metrics.time_s <- st.Metrics.time_s +. (Metrics.now_s () -. t0);
            st.Metrics.calls <- st.Metrics.calls + 1;
            (match r with
            | Some b ->
              st.Metrics.batches <- st.Metrics.batches + 1;
              st.Metrics.rows <- st.Metrics.rows + Batch.length b
            | None -> ());
            r
      end
    in
    let fused =
      (* Late materialization pays off on the side whose tuples it
         avoids building: fuse the probe side when it is the larger
         input, the build side when the planner builds on the larger
         input. (The small side's cells are shared across the join
         fan-out either way.) *)
      if left.Physical.est >= right.Physical.est then
        fused_join_scan ctx ~perm ~la kind ~lkeys ~rkeys ~left ~right
      else fused_join_build ctx ~perm ~la kind ~lkeys ~rkeys ~left ~right
    in
    (match fused with
    | None -> generic
    | Some open_fused ->
      fun () -> (match open_fused () with Some c -> c | None -> generic ()))
  | Physical.Project { cols; child }
    when (not ctx.Exec_ctx.interpret_exprs) && projection_perm cols <> None ->
    (* Column permutation/selection: a tight index loop per row instead
       of a compiled-expression closure call per cell. *)
    let perm =
      match projection_perm cols with Some p -> p | None -> assert false
    in
    let cf = compile ctx child in
    let permute b =
      let n = Batch.length b in
      let orows = Array.make n [||] in
      for i = 0 to n - 1 do
        Array.unsafe_set orows i (Tuple.project (Batch.get b i) perm)
      done;
      Batch.dense orows
    in
    fun () ->
      let c = cf () in
      fun () -> Option.map permute (c ())
  | Physical.Project { cols; child } ->
    let cf = compile ctx child in
    let proj = Expr_compile.compile_project_batch ctx (List.map fst cols) in
    fun () ->
      let c = cf () in
      fun () -> Option.map proj (c ())
  | Physical.Hash_join { kind; lkeys; rkeys; residual; left; right; right_arity }
    ->
    compile_hash_join ctx kind ~lkeys ~rkeys ~residual ~left ~right
      ~right_arity
  | Physical.Hash_agg { keys; aggs; child } -> compile_group ctx keys aggs child
  | Physical.Sort { keys; child } ->
    let cf = compile ctx child in
    let sort_rows = Executor.compile_sorter ctx keys in
    fun () -> emit_rows (sort_rows (drain_tracked ctx (cf ())))
  | Physical.Top_k { n; keys; child } ->
    (* Fused Limit-over-Sort drains its child completely in both engines,
       so unlike a bare Limit it is safe to run batch-native. *)
    let cf = compile ctx child in
    let sort_rows = Executor.compile_sorter ctx keys in
    fun () -> emit_rows (take n (sort_rows (drain_tracked ctx (cf ()))))
  | Physical.Distinct child ->
    let cf = compile ctx child in
    fun () ->
      let c = cf () in
      let seen = Tuple.Hashtbl_t.create 256 in
      let dedup row =
        if Tuple.Hashtbl_t.mem seen row then false
        else begin
          Tuple.Hashtbl_t.replace seen row ();
          true
        end
      in
      let rec next () =
        match c () with
        | None -> None
        | Some b ->
          Batch.refine dedup b;
          if Batch.length b = 0 then next () else Some b
      in
      next
  | Physical.Set_op { op; left; right } -> compile_set_op ctx op left right
  | Physical.Audit_probe { audit_name; id_col; child } ->
    let cf = compile ctx child in
    let st = Metrics.find ctx.Exec_ctx.metrics plan in
    fun () ->
      let slot = Executor.audit_slot ctx audit_name in
      let c = cf () in
      fun () ->
        match c () with
        | None -> None
        | Some b ->
          (* One probe per selected row; the batch passes through
             unmodified — the no-filtering invariant (§IV-A2) holds per
             chunk exactly as it does per row. *)
          Batch.iter (fun row -> Exec_ctx.probe ctx slot st row.(id_col)) b;
          Some b

and compile_scan ctx table cols : bfactory =
  if table = "$dual" then (fun () ->
    let done_ = ref false in
    fun () ->
      if !done_ then None
      else begin
        done_ := true;
        Some (Batch.dense [| [||] |])
      end)
  else
    let project row =
      match cols with None -> row | Some idxs -> Tuple.project row idxs
    in
    fun () ->
      let t = resolve_table ctx table in
      let hide = hide_for ctx table in
      (* A budget trip mid-chunk must not swallow the rows already filled:
         they were charged, and in row mode they would have reached the
         operators above (including audit probes) before the cancelling
         row. Emit the partial chunk and re-raise on the next call. *)
      let pending = ref None in
      let b = Batch.create () in
      let buf = b.Batch.rows in
      let reraise_or_end () =
        match !pending with
        | Some e ->
          pending := None;
          raise e
        | None -> None
      in
      let emit n =
        if n = 0 then reraise_or_end ()
        else begin
          Batch.refill b n;
          Some b
        end
      in
      match (hide, Table.column_store t) with
      | None, Some cs ->
        (* Columnar bulk path: collect a selection vector of live slots,
           charge the scan budget, then decode column-at-a-time into a
           fresh (minor-heap) chunk. The freshly boxed tuples must NOT
           land in the reused [buf] — it lives on the major heap, and
           every store there would promote the whole chunk (write
           barrier + copy) instead of letting it die young. *)
        let sel = Array.make Batch.chunk_size 0 in
        let from = ref 0 in
        fun () ->
          (match !pending with
          | Some e ->
            pending := None;
            raise e
          | None -> ());
          let stop = Table.next_slot t in
          let filled =
            match ctx.Exec_ctx.row_budget with
            | None ->
              let n =
                Column_store.live_slots cs ~from ~stop sel
                  ~max:Batch.chunk_size
              in
              if n > 0 then Exec_ctx.note_scanned_many ctx n;
              n
            | Some _ ->
              let n = ref 0 in
              (try
                 while !n < Batch.chunk_size && !from < stop do
                   let s = !from in
                   if Column_store.is_live cs s then begin
                     Exec_ctx.note_scanned ctx;
                     Array.unsafe_set sel !n s;
                     incr n
                   end;
                   incr from
                 done
               with e when cancelled e -> pending := Some e);
              !n
          in
          if filled = 0 then reraise_or_end ()
          else
            let orows =
              match cols with
              | None -> Column_store.read_many cs sel filled
              | Some idxs -> Column_store.read_proj_many cs idxs sel filled
            in
            Some (Batch.dense orows)
      | None, None ->
        (* Heap bulk path: copy live slots straight into the chunk (no
           per-row cursor closure or option) with the scan projection
           fused into the fill, and charge the whole chunk against the
           scan counter in O(1). Only when a row budget is armed does the
           charge fall back to per-row [note_scanned], so the budget
           cancels at exactly the same row as the row engine. *)
        let slot = ref 0 in
        let fill () =
          match cols with
          | None -> Table.fill_chunk t ~slot buf ~max:Batch.chunk_size
          | Some idxs ->
            Table.fill_chunk_proj t ~slot buf ~max:Batch.chunk_size ~cols:idxs
        in
        fun () ->
          (match !pending with
          | Some e ->
            pending := None;
            raise e
          | None -> ());
          let filled = fill () in
          if filled = 0 then None
          else begin
            let n = ref filled in
            (match ctx.Exec_ctx.row_budget with
            | None -> Exec_ctx.note_scanned_many ctx filled
            | Some _ ->
              n := 0;
              (try
                 while !n < filled do
                   Exec_ctx.note_scanned ctx;
                   incr n
                 done
               with e when cancelled e -> pending := Some e));
            emit !n
          end
      | Some _, _ ->
        let c = Table.cursor ?hide t in
        fun () ->
          (match !pending with
          | Some e ->
            pending := None;
            raise e
          | None -> ());
          match c () with
          | None -> None
          | Some first ->
            let n = ref 0 in
            (try
               Exec_ctx.note_scanned ctx;
               buf.(0) <- project first;
               n := 1;
               let continue_ = ref true in
               while !continue_ && !n < Batch.chunk_size do
                 match c () with
                 | None -> continue_ := false
                 | Some r ->
                   Exec_ctx.note_scanned ctx;
                   buf.(!n) <- project r;
                   incr n
               done
             with e when cancelled e -> pending := Some e);
            emit !n

(* Fused Filter-over-Seq_scan: the vectorized engine's late-
   materialization kernel. The predicate is remapped through the scan
   projection so it evaluates on raw table rows; each chunk is filled in
   bulk, refined, and only the surviving rows are projected. Semantics —
   survivors, emission order, [rows_scanned], budget-cancellation row —
   are exactly those of the unfused Filter→Seq_scan pair; only the
   per-row projection work on filtered-out rows disappears. The scan
   node keeps its own metrics entry (rows = rows scanned, as in the row
   engine) even though it no longer exists as a separate operator. *)
and compile_filter_scan ctx ~scan ~table ~cols pred : bfactory =
  let raw_pred =
    match cols with
    | None -> pred
    | Some idxs -> Scalar.shift_cols (fun i -> idxs.(i)) pred
  in
  let test = Expr_compile.compile_pred ctx raw_pred in
  let st =
    if Metrics.enabled ctx.Exec_ctx.metrics then
      Some (Metrics.register ctx.Exec_ctx.metrics scan)
    else None
  in
  fun () ->
    let t = resolve_table ctx table in
    let hide = hide_for ctx table in
    let pending = ref None in
    (match st with
    | Some s -> s.Metrics.opens <- s.Metrics.opens + 1
    | None -> ());
    (* True late materialization on a columnar store: refine a selection
       vector of slot numbers with a typed column kernel, then decode only
       the survivors (and only the projected columns). No tuple — not even
       a filtered-out one — is ever materialized. Falls back to the
       heap-style fill-then-filter path when the predicate has shapes the
       kernels don't cover (or in interpreter-oracle mode, which must
       exercise [Eval] per row). *)
    let columnar_kernel =
      match (hide, Table.column_store t) with
      | None, Some cs when not ctx.Exec_ctx.interpret_exprs ->
        Option.map (fun k -> (cs, k)) (Col_pred.compile ctx cs raw_pred)
      | _ -> None
    in
    match columnar_kernel with
    | Some (cs, kern) ->
      let sel = Array.make Batch.chunk_size 0 in
      let from = ref 0 in
      (* Collect up to a chunk of live slot numbers, charging the scan
         budget exactly as the heap path does: O(1) per chunk with no row
         budget armed, per-row with parking otherwise. *)
      let collect () =
        let stop = Table.next_slot t in
        match ctx.Exec_ctx.row_budget with
        | None ->
          let n =
            Column_store.live_slots cs ~from ~stop sel ~max:Batch.chunk_size
          in
          if n > 0 then Exec_ctx.note_scanned_many ctx n;
          n
        | Some _ ->
          let n = ref 0 in
          (try
             while !n < Batch.chunk_size && !from < stop do
               let s = !from in
               if Column_store.is_live cs s then begin
                 Exec_ctx.note_scanned ctx;
                 Array.unsafe_set sel !n s;
                 incr n
               end;
               incr from
             done
           with e when cancelled e -> pending := Some e);
          !n
      in
      let reraise_or_end () =
        match !pending with
        | Some e ->
          pending := None;
          raise e
        | None -> None
      in
      let rec next () =
        match !pending with
        | Some e ->
          pending := None;
          raise e
        | None ->
          let t0 = match st with None -> 0.0 | Some _ -> Metrics.now_s () in
          let filled = collect () in
          (match st with
          | Some s ->
            s.Metrics.time_s <- s.Metrics.time_s +. (Metrics.now_s () -. t0);
            s.Metrics.calls <- s.Metrics.calls + 1;
            if filled > 0 then begin
              s.Metrics.batches <- s.Metrics.batches + 1;
              s.Metrics.rows <- s.Metrics.rows + filled
            end
          | None -> ());
          if filled = 0 then reraise_or_end ()
          else begin
            let m = ref 0 in
            for j = 0 to filled - 1 do
              let s = Array.unsafe_get sel j in
              if kern s = Col_pred.holds then begin
                Array.unsafe_set sel !m s;
                incr m
              end
            done;
            let k = !m in
            if k = 0 then (
              match !pending with
              | Some e ->
                pending := None;
                raise e
              | None -> next ())
            else begin
              (* Fresh (minor-heap) output chunk of survivors only,
                 decoded column-at-a-time. *)
              let orows =
                match cols with
                | None -> Column_store.read_many cs sel k
                | Some idxs -> Column_store.read_proj_many cs idxs sel k
              in
              Some (Batch.dense orows)
            end
          end
      in
      next
    | None ->
    let raw = Batch.create () in
    let rbuf = raw.Batch.rows in
    (* Fill [rbuf] with raw rows and charge the scan budget; returns the
       charged count. A budget trip mid-chunk keeps the charged prefix
       and parks the exception in [pending]. *)
    let fill =
      match hide with
      | None ->
        let slot = ref 0 in
        fun () ->
          let filled = Table.fill_chunk t ~slot rbuf ~max:Batch.chunk_size in
          if filled = 0 then 0
          else begin
            match ctx.Exec_ctx.row_budget with
            | None ->
              Exec_ctx.note_scanned_many ctx filled;
              filled
            | Some _ ->
              let n = ref 0 in
              (try
                 while !n < filled do
                   Exec_ctx.note_scanned ctx;
                   incr n
                 done
               with e when cancelled e -> pending := Some e);
              !n
          end
      | Some _ ->
        let c = Table.cursor ?hide t in
        fun () ->
          let n = ref 0 in
          (try
             let continue_ = ref true in
             while !continue_ && !n < Batch.chunk_size do
               match c () with
               | None -> continue_ := false
               | Some r ->
                 Exec_ctx.note_scanned ctx;
                 rbuf.(!n) <- r;
                 incr n
             done
           with e when cancelled e -> pending := Some e);
          !n
    in
    let reraise_or_end () =
      match !pending with
      | Some e ->
        pending := None;
        raise e
      | None -> None
    in
    let rec next () =
      match !pending with
      | Some e ->
        pending := None;
        raise e
      | None ->
        let t0 = match st with None -> 0.0 | Some _ -> Metrics.now_s () in
        let filled = fill () in
        (match st with
        | Some s ->
          s.Metrics.time_s <- s.Metrics.time_s +. (Metrics.now_s () -. t0);
          s.Metrics.calls <- s.Metrics.calls + 1;
          if filled > 0 then begin
            s.Metrics.batches <- s.Metrics.batches + 1;
            s.Metrics.rows <- s.Metrics.rows + filled
          end
        | None -> ());
        if filled = 0 then reraise_or_end ()
        else begin
          Batch.refill raw filled;
          Batch.refine test raw;
          let k = Batch.length raw in
          if k = 0 then
            (* Nothing survived this chunk: re-raise a parked budget trip
               now (nothing is owed downstream), else keep scanning. *)
            match !pending with
            | Some e ->
              pending := None;
              raise e
            | None -> next ()
          else begin
            match cols with
            | None -> Some raw
            | Some idxs ->
              (* Fresh (minor-heap) output chunk: survivors' projected
                 tuples die young with it, where a reused major-heap
                 buffer would force their promotion. *)
              let orows = Array.make k [||] in
              for i = 0 to k - 1 do
                Array.unsafe_set orows i (Tuple.project (Batch.get raw i) idxs)
              done;
              Some (Batch.dense orows)
          end
        end
    in
    next

and compile_hash_join ?(combine = Tuple.append) ctx kind ~lkeys ~rkeys
    ~residual ~left ~right ~right_arity : bfactory =
  let lf = compile ctx left in
  let rf = compile ctx right in
  let lkeys = Array.map (Expr_compile.compile ctx) lkeys in
  let rkeys = Array.map (Expr_compile.compile ctx) rkeys in
  let residual = Option.map (Expr_compile.compile_pred ctx) residual in
  let null_pad = Array.make right_arity Value.Null in
  fun () ->
    (* Build: drain the right child's batches into the hash table, keyed
       and null-skipped exactly like the row engine. Single-column keys —
       the common case — probe a {!Value.Hashtbl_v} directly: no per-row
       key array, and [Value.hash]/[Value.equal] are exactly what
       {!Tuple.Hashtbl_t} applies per element (numeric Int/Float
       unification included), so match sets are unchanged. *)
    let rc = rf () in
    let find_cands =
      if Array.length rkeys = 1 && Array.length lkeys = 1 then begin
        let rk = rkeys.(0) and lk = lkeys.(0) in
        let tbl = Value.Hashtbl_v.create 1024 in
        let rec build () =
          match rc () with
          | None -> ()
          | Some b ->
            Batch.iter
              (fun row ->
                Exec_ctx.note_materialized ctx;
                let k = rk row in
                if not (Value.is_null k) then
                  Value.Hashtbl_v.replace tbl k
                    (row
                    :: (try Value.Hashtbl_v.find tbl k with Not_found -> [])))
              b;
            build ()
        in
        build ();
        fun lrow ->
          let k = lk lrow in
          if Value.is_null k then []
          else
            match Value.Hashtbl_v.find_opt tbl k with
            | Some ([ _ ] as rows) -> rows
            | Some rows -> List.rev rows
            | None -> []
      end
      else begin
        let tbl = Tuple.Hashtbl_t.create 1024 in
        let rec build () =
          match rc () with
          | None -> ()
          | Some b ->
            Batch.iter
              (fun row ->
                Exec_ctx.note_materialized ctx;
                let k = Array.map (fun f -> f row) rkeys in
                if not (Array.exists Value.is_null k) then
                  Tuple.Hashtbl_t.replace tbl k
                    (row
                    :: (try Tuple.Hashtbl_t.find tbl k with Not_found -> [])))
              b;
            build ()
        in
        build ();
        fun lrow ->
          let k = Array.map (fun f -> f lrow) lkeys in
          if Array.exists Value.is_null k then []
          else
            match Tuple.Hashtbl_t.find_opt tbl k with
            | Some rows -> List.rev rows
            | None -> []
      end
    in
    (* Probe: one output batch per input batch (size varies with the join
       fan-out; dense, in probe order — identical to the row engine's
       emission order). *)
    let lc = lf () in
    (* Join fan-out can push one input batch's output far past
       [chunk_size], so matches are flushed into a queue of fresh
       chunk-sized (minor-heap) batches as they are produced — joined
       tuples die young with their chunk, and emission order stays the
       row engine's probe order. *)
    let queue = ref [] in
    let rec next () =
      match !queue with
      | b :: rest ->
        queue := rest;
        Some b
      | [] -> (
        match lc () with
        | None -> None
        | Some b ->
          let chunks = ref [] in
          let buf = ref (Array.make Batch.chunk_size [||]) in
          let n = ref 0 in
          let push r =
            if !n = Batch.chunk_size then begin
              chunks := Batch.dense !buf :: !chunks;
              buf := Array.make Batch.chunk_size [||];
              n := 0
            end;
            Array.unsafe_set !buf !n r;
            incr n
          in
          Batch.iter
            (fun lrow ->
              let cands = find_cands lrow in
              let matched = ref false in
              List.iter
                (fun rrow ->
                  let combined = combine lrow rrow in
                  let keep =
                    match residual with None -> true | Some test -> test combined
                  in
                  if keep then begin
                    matched := true;
                    push combined
                  end)
                cands;
              if (not !matched) && kind = Logical.J_left then
                push (combine lrow null_pad))
            b;
          if !n > 0 then chunks := Batch.of_array !buf !n :: !chunks;
          match List.rev !chunks with
          | [] -> next ()
          | c :: rest ->
            queue := rest;
            Some c)
    in
    next

(* Fused projection-over-join-over-scan: late materialization carried
   all the way through a single-key inner hash join on a columnar probe
   side. The probe never materializes its input rows at all — live
   slots are collected and refined exactly like the fused filter-scan,
   the join key is read straight from the probe table's unboxed key
   column (the build side is bucketed by native [int], so a probe is
   one array load and one int-hash lookup, no boxing), and output
   tuples are decoded column-at-a-time directly into projected order:
   probe-side cells only for slots that actually joined, build-side
   cells copied from the stored build rows. Match sets, emission order
   (probe order, build-insertion order within a key) and the scanned/
   materialized counters are exactly the generic path's.

   Compile-time [None] when the shape doesn't fit (non-inner join,
   multi-column key, probe not a (filtered) scan, metrics enabled — the
   bypassed operator nodes would show blank timings in EXPLAIN
   ANALYZE); open-time [None] (caller falls back to the generic
   factory, before any child cursor is opened) when the store is not
   columnar, the key column is not int/date-backed, a [?hide] partition
   or guard budget is armed, or a kernel fails to compile. Build keys
   that no probe key could ever [Value.equal] are dropped; integral
   floats ≥ 2^53 (where several ints can round to one float) force the
   boxed-key table so the Int/Float unification of {!Value.equal} is
   preserved bit-for-bit. *)
and fused_join_scan ctx ~perm ~la kind ~lkeys ~rkeys ~left ~right :
    (unit -> bcursor option) option =
  if
    kind <> Logical.J_inner
    || Metrics.enabled ctx.Exec_ctx.metrics
    || Array.length lkeys <> 1
    || Array.length rkeys <> 1
  then None
  else
    let parts =
      match left.Physical.op with
      | Physical.Seq_scan { table; cols; _ } when table <> "$dual" ->
        Some (table, cols, None)
      | Physical.Filter
          { pred;
            child = { Physical.op = Physical.Seq_scan { table; cols; _ }; _ }
          }
        when table <> "$dual" ->
        Some (table, cols, Some pred)
      | _ -> None
    in
    match parts with
    | None -> None
    | Some (table, cols, pred) -> (
      match lkeys.(0) with
      | Scalar.Col kc ->
        let raw_col j =
          match cols with None -> j | Some idxs -> idxs.(j)
        in
        let raw_kc = raw_col kc in
        let raw_pred =
          Option.map
            (fun p ->
              match cols with
              | None -> p
              | Some idxs -> Scalar.shift_cols (fun i -> idxs.(i)) p)
            pred
        in
        let rk = Expr_compile.compile ctx rkeys.(0) in
        let rf = compile ctx right in
        let n_out = Array.length perm in
        let probe_pos =
          Array.of_list
            (List.filter
               (fun p -> perm.(p) < la)
               (List.init n_out (fun p -> p)))
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
                  let key_ty = Column_store.col_type cs raw_kc in
                  match (Column_store.col_data cs raw_kc, key_ty) with
                  | Column_store.Ints karr, (Datatype.T_int | Datatype.T_date)
                    -> (
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
                    | Some pred_kern ->
                      let is_date = key_ty = Datatype.T_date in
                      let knulls = Column_store.col_nulls cs raw_kc in
                      (* Build: drain the build child (all open-time
                         fallbacks are behind us — the generic factory
                         would re-open it and double-count). *)
                      let rc = rf () in
                      let pairs = ref [] in
                      let rec drain () =
                        match rc () with
                        | None -> ()
                        | Some b ->
                          Batch.iter
                            (fun row ->
                              Exec_ctx.note_materialized ctx;
                              pairs := (rk row, row) :: !pairs)
                            b;
                          drain ()
                      in
                      drain ();
                      let build_pairs = List.rev !pairs in
                      let ambiguous =
                        (not is_date)
                        && List.exists
                             (fun (v, _) ->
                               match v with
                               | Value.Float f ->
                                 Float.is_integer f
                                 && Float.abs f >= 9007199254740992.0
                               | _ -> false)
                             build_pairs
                      in
                      let find_cands =
                        if ambiguous then begin
                          let tbl = Value.Hashtbl_v.create 1024 in
                          List.iter
                            (fun (v, row) ->
                              if not (Value.is_null v) then
                                Value.Hashtbl_v.replace tbl v
                                  (row
                                  :: (try Value.Hashtbl_v.find tbl v
                                      with Not_found -> [])))
                            build_pairs;
                          let box =
                            if is_date then fun k -> Value.Date k
                            else fun k -> Value.Int k
                          in
                          fun k ->
                            match Value.Hashtbl_v.find_opt tbl (box k) with
                            | Some ([ _ ] as l) -> l
                            | Some l -> List.rev l
                            | None -> []
                        end
                        else begin
                          let tbl : (int, Tuple.t list) Hashtbl.t =
                            Hashtbl.create 1024
                          in
                          List.iter
                            (fun (v, row) ->
                              let k =
                                match v with
                                | Value.Int i when not is_date -> Some i
                                | Value.Date d when is_date -> Some d
                                | Value.Float f
                                  when (not is_date) && Float.is_integer f ->
                                  (* Exact iff the float round-trips:
                                     [Float.compare], not [=], so -0.0
                                     stays distinct from Int 0 as in
                                     {!Value.compare_total}. *)
                                  let fi = int_of_float f in
                                  if Float.compare (float_of_int fi) f = 0
                                  then Some fi
                                  else None
                                | _ -> None
                              in
                              match k with
                              | Some k ->
                                Hashtbl.replace tbl k
                                  (row
                                  :: (try Hashtbl.find tbl k
                                      with Not_found -> []))
                              | None -> ())
                            build_pairs;
                          fun k ->
                            match Hashtbl.find_opt tbl k with
                            | Some ([ _ ] as l) -> l
                            | Some l -> List.rev l
                            | None -> []
                        end
                      in
                      (* Probe: slot-at-a-time keys, column-at-a-time
                         output, nothing materialized for non-matching
                         probe rows. Matches flush into fresh
                         chunk-sized (minor-heap) batches — fan-out can
                         push one probe chunk's output past
                         [chunk_size], and an oversized output array
                         would be a major-heap allocation that promotes
                         every tuple stored into it. *)
                      let sel = Array.make Batch.chunk_size 0 in
                      let from = ref 0 in
                      let queue = ref [] in
                      let rec next () =
                        match !queue with
                        | b :: rest ->
                          queue := rest;
                          Some b
                        | [] ->
                          let stop = Table.next_slot t in
                          let k =
                            Column_store.live_slots cs ~from ~stop sel
                              ~max:Batch.chunk_size
                          in
                          if k = 0 then None
                          else begin
                            Exec_ctx.note_scanned_many ctx k;
                            let k =
                              match pred_kern with
                              | None -> k
                              | Some kern ->
                                let m = ref 0 in
                                for i = 0 to k - 1 do
                                  let s = Array.unsafe_get sel i in
                                  if kern s = Col_pred.holds then begin
                                    Array.unsafe_set sel !m s;
                                    incr m
                                  end
                                done;
                                !m
                            in
                            let chunks = ref [] in
                            let oslots = ref (Array.make Batch.chunk_size 0) in
                            let orrows =
                              ref (Array.make Batch.chunk_size [||])
                            in
                            let m = ref 0 in
                            let flush () =
                              if !m > 0 then begin
                                let mm = !m in
                                let sl = !oslots and rr = !orrows in
                                let rows =
                                  Array.init mm (fun _ ->
                                      Array.make n_out Value.Null)
                                in
                                (* Join fan-out repeats the same probe
                                   slot in consecutive outputs: decode
                                   each probe cell once per run head,
                                   then share the boxed value down the
                                   run (the build side already shares
                                   its stored tuples' cells). *)
                                let usel = Array.make mm 0 in
                                let ufirst = Array.make mm [||] in
                                let u = ref 0 in
                                for r = 0 to mm - 1 do
                                  if
                                    r = 0
                                    || Array.unsafe_get sl r
                                       <> Array.unsafe_get sl (r - 1)
                                  then begin
                                    Array.unsafe_set usel !u
                                      (Array.unsafe_get sl r);
                                    Array.unsafe_set ufirst !u
                                      (Array.unsafe_get rows r);
                                    incr u
                                  end
                                done;
                                let u = !u in
                                for p = 0 to n_out - 1 do
                                  let j = Array.unsafe_get perm p in
                                  if j < la then
                                    Column_store.blit_col cs ~col:(raw_col j)
                                      ~pos:p usel u ufirst
                                  else begin
                                    let bi = j - la in
                                    for r = 0 to mm - 1 do
                                      Array.unsafe_set
                                        (Array.unsafe_get rows r)
                                        p
                                        (Array.unsafe_get
                                           (Array.unsafe_get rr r)
                                           bi)
                                    done
                                  end
                                done;
                                if u < mm then
                                  for r = 1 to mm - 1 do
                                    if
                                      Array.unsafe_get sl r
                                      = Array.unsafe_get sl (r - 1)
                                    then begin
                                      let prev = Array.unsafe_get rows (r - 1)
                                      and cur = Array.unsafe_get rows r in
                                      Array.iter
                                        (fun p ->
                                          Array.unsafe_set cur p
                                            (Array.unsafe_get prev p))
                                        probe_pos
                                    end
                                  done;
                                chunks := Batch.dense rows :: !chunks;
                                oslots := Array.make Batch.chunk_size 0;
                                orrows := Array.make Batch.chunk_size [||];
                                m := 0
                              end
                            in
                            let push s r =
                              if !m = Batch.chunk_size then flush ();
                              Array.unsafe_set !oslots !m s;
                              Array.unsafe_set !orrows !m r;
                              incr m
                            in
                            for i = 0 to k - 1 do
                              let s = Array.unsafe_get sel i in
                              if not (Column_store.Bitmap.get knulls s) then
                                match
                                  find_cands (Array.unsafe_get karr s)
                                with
                                | [] -> ()
                                | cands ->
                                  List.iter (fun r -> push s r) cands
                            done;
                            flush ();
                            match List.rev !chunks with
                            | [] -> next ()
                            | c :: rest ->
                              queue := rest;
                              Some c
                          end
                      in
                      Some next)
                  | _ -> None))
      | _ -> None)

(* The build-side mirror of {!fused_join_scan}: late materialization
   through a single-key inner hash join whose BUILD child is a
   (filtered) columnar scan. The build side is never materialized as
   tuples — live slots are collected and refined with the column
   kernels, then bucketed by the unboxed key column as raw slot
   numbers. Probe rows come from the generically-compiled probe child;
   a probe is one int-hash lookup, and each matched build cell is
   decoded column-at-a-time straight into its projected output
   position (probe-side cells are pointer copies from the already-
   boxed probe tuple). The right orientation when the planner builds
   on the larger input: the whole build-side tuple materialization
   disappears, and each build cell is decoded at most once per match.

   Build keys come from a typed int/date column, so they are exact
   ints — the Int/Float unification of {!Value.equal} is reproduced on
   the probe side by an exact float→int round-trip; if any build key
   reaches the 2^53 range where several ints can round to one float,
   the whole fusion falls back (checked before any counter moves). *)
and fused_join_build ctx ~perm ~la kind ~lkeys ~rkeys ~left ~right :
    (unit -> bcursor option) option =
  if
    kind <> Logical.J_inner
    || Metrics.enabled ctx.Exec_ctx.metrics
    || Array.length lkeys <> 1
    || Array.length rkeys <> 1
  then None
  else
    let parts =
      match right.Physical.op with
      | Physical.Seq_scan { table; cols; _ } when table <> "$dual" ->
        Some (table, cols, None)
      | Physical.Filter
          { pred;
            child = { Physical.op = Physical.Seq_scan { table; cols; _ }; _ }
          }
        when table <> "$dual" ->
        Some (table, cols, Some pred)
      | _ -> None
    in
    match parts with
    | None -> None
    | Some (table, cols, pred) -> (
      match rkeys.(0) with
      | Scalar.Col kc ->
        let raw_col j = match cols with None -> j | Some idxs -> idxs.(j) in
        let raw_kc = raw_col kc in
        let raw_pred =
          Option.map
            (fun p ->
              match cols with
              | None -> p
              | Some idxs -> Scalar.shift_cols (fun i -> idxs.(i)) p)
            pred
        in
        let lk = Expr_compile.compile ctx lkeys.(0) in
        let lf = compile ctx left in
        let n_out = Array.length perm in
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
                  let key_ty = Column_store.col_type cs raw_kc in
                  match (Column_store.col_data cs raw_kc, key_ty) with
                  | Column_store.Ints karr, (Datatype.T_int | Datatype.T_date)
                    -> (
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
                    | Some pred_kern ->
                      let is_date = key_ty = Datatype.T_date in
                      let knulls = Column_store.col_nulls cs raw_kc in
                      let max_exact = 9007199254740992 (* 2^53 *) in
                      let stop0 = Table.next_slot t in
                      let huge = ref false in
                      if not is_date then
                        for s = 0 to stop0 - 1 do
                          if
                            Column_store.is_live cs s
                            && not (Column_store.Bitmap.get knulls s)
                          then begin
                            let a = Array.unsafe_get karr s in
                            if a >= max_exact || a <= -max_exact then
                              huge := true
                          end
                        done;
                      if !huge then None
                      else begin
                        (* Build: bucket surviving slots by unboxed key
                           (no fallback past this point — counters
                           move). *)
                        let tbl : (int, int list) Hashtbl.t =
                          Hashtbl.create 1024
                        in
                        let sel = Array.make Batch.chunk_size 0 in
                        let from = ref 0 in
                        let continue_ = ref true in
                        while !continue_ do
                          let stop = Table.next_slot t in
                          let k =
                            Column_store.live_slots cs ~from ~stop sel
                              ~max:Batch.chunk_size
                          in
                          if k = 0 then continue_ := false
                          else begin
                            Exec_ctx.note_scanned_many ctx k;
                            let k =
                              match pred_kern with
                              | None -> k
                              | Some kern ->
                                let m = ref 0 in
                                for i = 0 to k - 1 do
                                  let s = Array.unsafe_get sel i in
                                  if kern s = Col_pred.holds then begin
                                    Array.unsafe_set sel !m s;
                                    incr m
                                  end
                                done;
                                !m
                            in
                            for i = 0 to k - 1 do
                              let s = Array.unsafe_get sel i in
                              Exec_ctx.note_materialized ctx;
                              if not (Column_store.Bitmap.get knulls s) then begin
                                let key = Array.unsafe_get karr s in
                                Hashtbl.replace tbl key
                                  (s
                                  :: (try Hashtbl.find tbl key
                                      with Not_found -> []))
                              end
                            done
                          end
                        done;
                        let find_slots k =
                          match Hashtbl.find_opt tbl k with
                          | Some ([ _ ] as l) -> l
                          | Some l -> List.rev l
                          | None -> []
                        in
                        let probe_slots v =
                          match v with
                          | Value.Int i when not is_date -> find_slots i
                          | Value.Date d when is_date -> find_slots d
                          | Value.Float f
                            when (not is_date) && Float.is_integer f ->
                            (* Exact iff the float round-trips
                               ([Float.compare], so -0.0 stays distinct
                               from Int 0); ints ≥ 2^53 can't be build
                               keys here, so a non-round-tripping float
                               matches nothing. *)
                            let fi = int_of_float f in
                            if Float.compare (float_of_int fi) f = 0 then
                              find_slots fi
                            else []
                          | _ -> []
                        in
                        (* Probe: matches flush into fresh chunk-sized
                           (minor-heap) batches, in probe order —
                           fan-out can push one probe batch's output
                           past [chunk_size], and an oversized output
                           array would be a major-heap allocation that
                           promotes every tuple stored into it. *)
                        let lc = lf () in
                        let queue = ref [] in
                        let rec next () =
                          match !queue with
                          | b :: rest ->
                            queue := rest;
                            Some b
                          | [] -> (
                            match lc () with
                            | None -> None
                            | Some b ->
                              let chunks = ref [] in
                              let olrows =
                                ref (Array.make Batch.chunk_size [||])
                              in
                              let oslots =
                                ref (Array.make Batch.chunk_size 0)
                              in
                              let m = ref 0 in
                              let flush () =
                                if !m > 0 then begin
                                  let mm = !m in
                                  let lr = !olrows and sl = !oslots in
                                  let rows =
                                    Array.init mm (fun _ ->
                                        Array.make n_out Value.Null)
                                  in
                                  for p = 0 to n_out - 1 do
                                    let j = Array.unsafe_get perm p in
                                    if j < la then
                                      for r = 0 to mm - 1 do
                                        Array.unsafe_set
                                          (Array.unsafe_get rows r)
                                          p
                                          (Array.unsafe_get
                                             (Array.unsafe_get lr r)
                                             j)
                                      done
                                    else
                                      Column_store.blit_col cs
                                        ~col:(raw_col (j - la))
                                        ~pos:p sl mm rows
                                  done;
                                  chunks := Batch.dense rows :: !chunks;
                                  olrows :=
                                    Array.make Batch.chunk_size [||];
                                  oslots := Array.make Batch.chunk_size 0;
                                  m := 0
                                end
                              in
                              let push lrow s =
                                if !m = Batch.chunk_size then flush ();
                                Array.unsafe_set !olrows !m lrow;
                                Array.unsafe_set !oslots !m s;
                                incr m
                              in
                              Batch.iter
                                (fun lrow ->
                                  match probe_slots (lk lrow) with
                                  | [] -> ()
                                  | cands ->
                                    List.iter (fun s -> push lrow s) cands)
                                b;
                              flush ();
                              match List.rev !chunks with
                              | [] -> next ()
                              | c :: rest ->
                                queue := rest;
                                Some c)
                        in
                        Some next
                      end)
                  | _ -> None))
      | _ -> None)

and compile_group ctx keys aggs child : bfactory =
  (* The generic path is always compiled (and its operators registered
     for metrics); the fused columnar kernel takes over at open time
     when the store and the expression shapes allow it. *)
  let generic = compile_group_generic ctx keys aggs child in
  match fused_group ctx keys aggs child with
  | None -> generic
  | Some open_fused -> (
    fun () ->
      match open_fused () with
      | Some cursor -> cursor
      | None -> generic ())

and compile_group_generic ctx keys aggs child : bfactory =
  let cf = compile ctx child in
  let key_exprs =
    Array.of_list (List.map (fun (e, _) -> Expr_compile.compile ctx e) keys)
  in
  let agg_list = Array.of_list aggs in
  let agg_args =
    Array.map
      (fun a -> Option.map (Expr_compile.compile ctx) a.Logical.arg)
      agg_list
  in
  if keys = [] then (
    (* Scalar aggregation: one state vector in locals — the batch loop
       skips the per-row group-key build and hash probe entirely (the row
       engine cannot: its per-row protocol keeps state behind the same
       hash table as the grouped path). *)
    let nagg = Array.length agg_list in
    fun () ->
      let c = cf () in
      let states = Array.map Aggregate.create agg_list in
      let seen = ref false in
      let consume_row row =
        Array.iteri
          (fun i st ->
            let v =
              match agg_args.(i) with None -> None | Some f -> Some (f row)
            in
            Aggregate.update st v)
          states
      in
      let rec consume () =
        match c () with
        | None -> ()
        | Some b ->
          if Batch.length b > 0 then begin
            if not !seen then begin
              seen := true;
              Exec_ctx.note_materialized ctx
            end;
            (* COUNT(<star>)-style states (no argument) advance by the
               batch length in O(1); anything else updates per row. *)
            if Array.for_all Option.is_none agg_args then
              for i = 0 to nagg - 1 do
                Aggregate.update_many states.(i) (Batch.length b)
              done
            else Batch.iter consume_row b
          end;
          consume ()
      in
      consume ();
      emit_rows [ Array.map Aggregate.final states ])
  else
  fun () ->
    let c = cf () in
    let groups : Aggregate.state array Tuple.Hashtbl_t.t =
      Tuple.Hashtbl_t.create 256
    in
    let order = ref [] in
    let consume_row row =
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
      Array.iteri
        (fun i st ->
          let v =
            match agg_args.(i) with None -> None | Some f -> Some (f row)
          in
          Aggregate.update st v)
        states
    in
    let rec consume () =
      match c () with
      | None -> ()
      | Some b ->
        Batch.iter consume_row b;
        consume ()
    in
    consume ();
    let emit k =
      let states = Tuple.Hashtbl_t.find groups k in
      Tuple.append k (Array.map Aggregate.final states)
    in
    let pending =
      if Array.length key_exprs = 0 && Tuple.Hashtbl_t.length groups = 0 then begin
        (* Scalar aggregate over empty input: one default row. *)
        let states = Array.map Aggregate.create agg_list in
        [ Array.map Aggregate.final states ]
      end
      else List.rev_map emit !order
    in
    emit_rows pending

(* Fused columnar aggregation: Hash_agg over (Filter over) Seq_scan on a
   columnar table runs entirely on typed column vectors — the predicate
   as a {!Col_pred} kernel over slot numbers, group keys as packed
   dictionary codes, aggregate arguments as unboxed {!Col_pred.compile_num}
   kernels feeding {!Aggregate.add_int}/{!add_float}. No input tuple is
   ever materialized; only the group rows are built, with the same
   first-seen emission order, [rows_scanned] total and per-group
   [note_materialized] accounting as the unfused pipeline.

   The compile-time half recognizes the plan shape (fault injection
   must see the unfused operators, so an armed kit disables it, as do
   Audit_probe nodes — they break the Filter-over-Seq_scan pattern and
   keep their evidence). The open-time half checks everything that
   depends on the session: heap tables, a [?hide] partition, the
   interpreter oracle, or any armed guard (whose cancellation must land
   on the exact row) fall back to the generic path. *)
and fused_group ctx keys aggs child : (unit -> bcursor option) option =
  if Engine_core.Faultkit.armed ctx.Exec_ctx.faults then None
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
      let key_col (e, _) =
        match e with
        | Scalar.Col i -> (
          match cols with None -> Some i | Some idxs -> Some idxs.(i))
        | _ -> None
      in
      let key_cols = List.map key_col keys in
      if List.exists Option.is_none key_cols then None
      else
        let key_cols = Array.of_list (List.map Option.get key_cols) in
        let raw_pred = Option.map shift pred in
        let agg_arr = Array.of_list aggs in
        let raw_args =
          Array.map (fun a -> Option.map shift a.Logical.arg) agg_arr
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
                    else
                      let upds = Array.map Option.get upds in
                      let exception Unsupported in
                      try
                        (* Group keys: dictionary-encoded columns only,
                           packed into one int (code = dictionary size
                           stands in for NULL, so NULLs group together
                           exactly as [Tuple] key equality groups them). *)
                        let key_info =
                          Array.map
                            (fun i ->
                              match Column_store.col_data cs i with
                              | Column_store.Codes (a, d) ->
                                ( a,
                                  Column_store.col_nulls cs i,
                                  d,
                                  Column_store.Dict.size d )
                              | _ -> raise Unsupported)
                            key_cols
                        in
                        let product =
                          Array.fold_left
                            (fun acc (_, _, _, n) ->
                              let b = n + 1 in
                              if acc > (1 lsl 44) / b then raise Unsupported
                              else acc * b)
                            1 key_info
                        in
                        let nkeys = Array.length key_cols in
                        let nagg = Array.length upds in
                        let pack s =
                          let k = ref 0 in
                          for j = 0 to nkeys - 1 do
                            let a, nulls, _, n = Array.unsafe_get key_info j in
                            let c =
                              if Column_store.Bitmap.get nulls s then n
                              else Array.unsafe_get a s
                            in
                            k := (!k * (n + 1)) + c
                          done;
                          !k
                        in
                        let decode k =
                          let vals = Array.make nkeys Value.Null in
                          let k = ref k in
                          for j = nkeys - 1 downto 0 do
                            let _, _, d, n = key_info.(j) in
                            let c = !k mod (n + 1) in
                            k := !k / (n + 1);
                            if c < n then
                              vals.(j) <-
                                Value.Str (Column_store.Dict.decode d c)
                          done;
                          vals
                        in
                        (* First-seen order, with the states stored
                           alongside so emission needs no second lookup. *)
                        let order = ref [] in
                        let new_states key =
                          Exec_ctx.note_materialized ctx;
                          let s = Array.map Aggregate.create agg_arr in
                          order := (key, s) :: !order;
                          s
                        in
                        (* Scalar aggregation: one state vector; the
                           generic path notes one materialization when
                           any input row arrives. *)
                        let scalar_states =
                          if nkeys = 0 then
                            Some (Array.map Aggregate.create agg_arr)
                          else None
                        in
                        let get_states =
                          match scalar_states with
                          | Some states ->
                            let seen = ref false in
                            fun _ ->
                              if not !seen then begin
                                seen := true;
                                Exec_ctx.note_materialized ctx
                              end;
                              states
                          | None when product <= 4096 -> begin
                            let groups = Array.make product None in
                            fun s ->
                              let key = pack s in
                              match Array.unsafe_get groups key with
                              | Some st -> st
                              | None ->
                                let st = new_states key in
                                groups.(key) <- Some st;
                                st
                          end
                          | None -> begin
                            let groups : (int, Aggregate.state array) Hashtbl.t
                                =
                              Hashtbl.create 256
                            in
                            fun s ->
                              let key = pack s in
                              match Hashtbl.find_opt groups key with
                              | Some st -> st
                              | None ->
                                let st = new_states key in
                                Hashtbl.replace groups key st;
                                st
                          end
                        in
                        let sel = Array.make Batch.chunk_size 0 in
                        let from = ref 0 in
                        let stop = Table.next_slot t in
                        let scanned = ref 0 in
                        let kept = ref 0 in
                        let chunks = ref 0 in
                        let consume s =
                          let keep =
                            match pred_kern with
                            | None -> true
                            | Some k -> k s = Col_pred.holds
                          in
                          if keep then begin
                            incr kept;
                            let states = get_states s in
                            for i = 0 to nagg - 1 do
                              (Array.unsafe_get upds i)
                                (Array.unsafe_get states i)
                                s
                            done
                          end
                        in
                        let rec drain () =
                          let n =
                            Column_store.live_slots cs ~from ~stop sel
                              ~max:Batch.chunk_size
                          in
                          if n > 0 then begin
                            Exec_ctx.note_scanned_many ctx n;
                            scanned := !scanned + n;
                            incr chunks;
                            for j = 0 to n - 1 do
                              consume (Array.unsafe_get sel j)
                            done;
                            drain ()
                          end
                        in
                        drain ();
                        (* The bypassed scan/filter operators keep their
                           metrics entries (registered by the generic
                           compile), with rows = scanned / survivors as
                           in the unfused pipeline. *)
                        if Metrics.enabled ctx.Exec_ctx.metrics then begin
                          (match
                             Metrics.find ctx.Exec_ctx.metrics scan_node
                           with
                          | Some s ->
                            s.Metrics.opens <- s.Metrics.opens + 1;
                            s.Metrics.calls <- s.Metrics.calls + !chunks;
                            s.Metrics.batches <- s.Metrics.batches + !chunks;
                            s.Metrics.rows <- s.Metrics.rows + !scanned
                          | None -> ());
                          match pred with
                          | None -> ()
                          | Some _ -> (
                            match Metrics.find ctx.Exec_ctx.metrics child with
                            | Some s ->
                              s.Metrics.opens <- s.Metrics.opens + 1;
                              s.Metrics.calls <- s.Metrics.calls + !chunks;
                              s.Metrics.batches <- s.Metrics.batches + !chunks;
                              s.Metrics.rows <- s.Metrics.rows + !kept
                            | None -> ())
                        end;
                        let pending =
                          match scalar_states with
                          | Some states ->
                            (* Emitted even over empty input, like the
                               generic scalar path. *)
                            [ Array.map Aggregate.final states ]
                          | None ->
                            List.rev_map
                              (fun (key, states) ->
                                Tuple.append (decode key)
                                  (Array.map Aggregate.final states))
                              !order
                        in
                        Some (emit_rows pending)
                      with Unsupported -> None)))

and compile_set_op ctx op left right : bfactory =
  let lf = compile ctx left in
  let rf = compile ctx right in
  match op with
  | Sql.Ast.Union_all ->
    fun () ->
      let lc = lf () in
      let rc = rf () in
      let on_left = ref true in
      let rec next () =
        if !on_left then
          match lc () with
          | Some b -> Some b
          | None ->
            on_left := false;
            next ()
        else rc ()
      in
      next
  | Sql.Ast.Union ->
    fun () ->
      let seen = Tuple.Hashtbl_t.create 256 in
      let dedup row =
        if Tuple.Hashtbl_t.mem seen row then false
        else begin
          Tuple.Hashtbl_t.replace seen row ();
          true
        end
      in
      let lc = lf () in
      let rc = rf () in
      let on_left = ref true in
      let rec next () =
        let candidate =
          if !on_left then
            match lc () with
            | Some b -> Some b
            | None ->
              on_left := false;
              rc ()
          else rc ()
        in
        match candidate with
        | None -> None
        | Some b ->
          Batch.refine dedup b;
          if Batch.length b = 0 then next () else Some b
      in
      next
  | Sql.Ast.Except | Sql.Ast.Intersect ->
    let keep_if_in_right = op = Sql.Ast.Intersect in
    fun () ->
      let right_set = Tuple.Hashtbl_t.create 256 in
      let rc = rf () in
      let rec build () =
        match rc () with
        | None -> ()
        | Some b ->
          Batch.iter
            (fun r ->
              Exec_ctx.note_materialized ctx;
              Tuple.Hashtbl_t.replace right_set r ())
            b;
          build ()
      in
      build ();
      let emitted = Tuple.Hashtbl_t.create 256 in
      let keep row =
        if
          Tuple.Hashtbl_t.mem right_set row = keep_if_in_right
          && not (Tuple.Hashtbl_t.mem emitted row)
        then begin
          Tuple.Hashtbl_t.replace emitted row ();
          true
        end
        else false
      in
      let lc = lf () in
      let rec next () =
        match lc () with
        | None -> None
        | Some b ->
          Batch.refine keep b;
          if Batch.length b = 0 then next () else Some b
      in
      next

(* ------------------------------------------------------------------ *)
(* Convenience entry points                                            *)
(* ------------------------------------------------------------------ *)

(** Compile and run under the batch engine, materializing all rows. *)
let run_list ctx plan : Tuple.t list =
  let c = compile ctx plan () in
  let acc = ref [] in
  let rec go () =
    match c () with
    | None -> ()
    | Some b ->
      Batch.iter (fun r -> acc := r :: !acc) b;
      go ()
  in
  go ();
  List.rev !acc

(** Compile and run, counting rows without materializing (benchmarks). *)
let run_count ctx plan : int =
  let c = compile ctx plan () in
  let rec go n =
    match c () with None -> n | Some b -> go (n + Batch.length b)
  in
  go 0
