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
      order (pre-order; an index-NL join's probe chain through the
      shared {!Executor.index_probe}) and per-node row counts match. Time
      is attributed per pipeline: blocking operators record their build
      phase, the root records the whole run;
    - {e fault sites}: with the fault kit armed at compile time, every
      node's wrapper fires [Faultkit.on_get_next] once when its source
      starts and once after each push to its sink returns — the row
      engine's pull order, so an [Op_next] point hits the same operator
      on the same row. An early exit skips the fire.

    Columnar pipeline heads ({e kernels}) read typed column vectors by
    slot number and build only the tuples they push: fused grouped
    aggregation, the count-only scan, and late-materializing hash joins
    (see {!fused_agg} and {!late_join}). Each is chosen from the plan
    shape at compile time and from the session at open time, where any
    armed guard or fault point, a [?hide] partition, the interpreter
    oracle or a heap store falls back to the generic pipeline before a
    counter moves.

    Early exit: [Limit] stops its child by raising a per-instance local
    exception once its n-th row's push returns, and [Apply] stops its
    inner plan the same way after the first row. Every unguarded scan
    loop counts the rows it reads, the one being pushed included, and
    charges them on every exit ({!charge_scanned}), so the counters end
    where the row engine stopped pulling. *)

open Storage
open Plan

type sink = Tuple.t -> unit
type source = sink -> unit
type factory = unit -> source

let scan_chunk = 256

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

let count_rows st n =
  match st with
  | Some s -> s.Metrics.rows <- s.Metrics.rows + n
  | None -> ()

let count_row st = count_rows st 1

(* Charge [n] rows read by an unguarded scan loop to the scan budget and
   the scan node's stats. Each such loop counts the rows it reads in a
   local counter, the row being pushed included, and charges the count
   on every exit: when a push raises (an early exit above, a fault, an
   error), the rows after it are never counted. The counter stays out of
   closures, so the loop keeps it in a register. *)
let charge_scanned ctx st n =
  Exec_ctx.note_scanned_many ctx n;
  count_rows st n

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

(* A projection whose every expression is a bare column reference is a
   permutation/selection of its input: [Some perm] maps each output
   position to its source column. *)
let projection_perm cols =
  let perm = Array.make (List.length cols) 0 in
  let rec go i = function
    | [] -> if i = 0 then None else Some perm
    | (Scalar.Col j, _) :: rest ->
      perm.(i) <- j;
      go (i + 1) rest
    | _ -> None
  in
  go 0 cols

(* Per-left-row probe emission shared by hash and nested-loop joins:
   candidates joined in arrival order, LEFT JOIN null-pads when nothing
   survives (Executor.join_emit). With a residual every candidate is
   tested before the first is pushed, as the row engine buffers them. *)
let join_emit ~kind ~combine ~null_pad ~residual ~probe sink : sink =
  match residual with
  | None -> (
    fun lrow ->
      match probe lrow with
      | [] -> if kind = Logical.J_left then sink (combine lrow null_pad)
      | cands -> List.iter (fun rrow -> sink (combine lrow rrow)) cands)
  | Some test -> (
    fun lrow ->
      let joined =
        List.filter_map
          (fun rrow ->
            let combined = combine lrow rrow in
            if test combined then Some combined else None)
          (probe lrow)
      in
      match (joined, kind) with
      | [], Logical.J_left -> sink (combine lrow null_pad)
      | _, _ -> List.iter sink joined)

(* A hash-join bucket: rows cons up newest first during the build, and
   the first probe that reads a bucket puts it in insertion order, once. *)
type bucket = { mutable rows : Tuple.t list; mutable ordered : bool }

let bucket row = { rows = [ row ]; ordered = true }

let bucket_add b row =
  b.rows <- row :: b.rows;
  b.ordered <- false

let bucket_rows b =
  if not b.ordered then begin
    b.rows <- List.rev b.rows;
    b.ordered <- true
  end;
  b.rows

(* ------------------------------------------------------------------ *)
(* Columnar kernel plumbing                                            *)
(* ------------------------------------------------------------------ *)

(* A kernel-eligible pipeline head: a base-table Seq_scan, optionally
   under one Filter. [pred] is already remapped onto base-table columns
   ({!Scalar.shift_cols}) and [col] maps a scan-output column to its
   base column. *)
type scan_head = {
  table : string;
  pred : Scalar.t option;
  col : int -> int;
  arity : int;  (** scan output arity *)
  scan : Physical.t;
}

let scan_head (p : Physical.t) : scan_head option =
  let head pred scan =
    match scan.Physical.op with
    | Physical.Seq_scan { table; schema; cols; _ } when table <> "$dual" ->
      let col, arity =
        match cols with
        | None -> ((fun j -> j), Schema.arity schema)
        | Some idxs -> ((fun j -> idxs.(j)), Array.length idxs)
      in
      Some
        {
          table;
          pred = Option.map (Scalar.shift_cols col) pred;
          col;
          arity;
          scan;
        }
    | _ -> None
  in
  match p.Physical.op with
  | Physical.Filter { pred; child } -> head (Some pred) child
  | _ -> head None p

(* The session half of every kernel's gate: the interpreter oracle must
   evaluate every expression, an armed guard must cancel on the exact
   row, an armed fault point must fire on every node the kernel would
   bypass, and a [?hide] partition goes through the cursor — each falls
   back to the generic pipeline. *)
let kernel_table ctx table =
  if
    ctx.Exec_ctx.interpret_exprs || Exec_ctx.guards_armed ctx
    || Engine_core.Faultkit.armed ctx.Exec_ctx.faults
  then None
  else if Exec_ctx.hide_for ctx table <> None then None
  else Some (Exec_ctx.resolve_table ctx table)

let kernel_store ctx table =
  Option.bind (kernel_table ctx table) (fun t ->
      Option.map (fun cs -> (t, cs)) (Table.column_store t))

(* Slot-level predicate kernel; a missing predicate keeps every slot. *)
let slot_pred ctx cs = function
  | None -> Some (fun _ -> Col_pred.holds)
  | Some p -> Col_pred.compile ctx cs p

(* Use the kernel when it accepts the session at open time, else the
   generic factory (nothing has been opened or counted yet). *)
let with_kernel (generic : factory) kernel : factory =
  match kernel with
  | None -> generic
  | Some open_kernel -> (
    fun () -> match open_kernel () with Some src -> src | None -> generic ())

(* The typed key column of a late-materializing join side: an int- or
   date-backed column, with its null bitmap. *)
let int_key_column cs col =
  match (Column_store.col_data cs col, Column_store.col_type cs col) with
  | Column_store.Ints a, ((Datatype.T_int | Datatype.T_date) as ty) ->
    Some (a, Column_store.col_nulls cs col, ty = Datatype.T_date)
  | _ -> None

let two53 = 9007199254740992

(* The int a value must equal, under {!Value.equal}, to match a key of
   an int (or date) column whose keys all lie strictly within ±2^53: Int
   and Float unify when the float round-trips exactly ([Float.compare],
   so -0.0 stays distinct from Int 0 as in {!Value.compare_total}). *)
let exact_int ~is_date (v : Value.t) =
  match v with
  | Value.Int i when not is_date -> Some i
  | Value.Date d when is_date -> Some d
  | Value.Float f when (not is_date) && Float.is_integer f ->
    let fi = int_of_float f in
    if Float.compare (float_of_int fi) f = 0 then Some fi else None
  | _ -> None

let rec compile (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
  instrument ctx plan (fun () -> compile_op ctx plan)

(* Metrics, guard and fault wrapper around a node's factory. The node is
   registered before [build] compiles its children (pre-order). The
   fault site fires when the source starts and after each push returns:
   the row engine's getNext calls, in its order. *)
and instrument ctx plan build : factory =
  let base =
    if not (Metrics.enabled ctx.Exec_ctx.metrics) then build ()
    else begin
      let st = Metrics.register ctx.Exec_ctx.metrics plan in
      let f = build () in
      fun () ->
        st.Metrics.opens <- st.Metrics.opens + 1;
        let src = f () in
        fun sink ->
          src (fun row ->
              st.Metrics.rows <- st.Metrics.rows + 1;
              sink row)
    end
  in
  let faults = Engine_core.Faultkit.armed ctx.Exec_ctx.faults in
  if not (faults || Exec_ctx.guards_armed ctx) then base
  else begin
    let kit = ctx.Exec_ctx.faults and op = Physical.label plan in
    let fire () = if faults then Engine_core.Faultkit.on_get_next kit ~op in
    fun () ->
      Exec_ctx.check_deadline ctx;
      let src = base () in
      fun sink ->
        fire ();
        src (fun row ->
            Exec_ctx.check_guards ctx;
            sink row;
            fire ())
  end

and compile_op (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
  match plan.Physical.op with
  | Physical.Seq_scan { table; cols; _ } ->
    if table = "$dual" then fun () sink -> sink [||]
    else
      fun () ->
        let t = Exec_ctx.resolve_table ctx table in
        let hide = Exec_ctx.hide_for ctx table in
        fun sink -> scan_source ctx t ~hide ~cols sink
  | Physical.Filter
      { pred; child = { Physical.op = Physical.Seq_scan { table; cols; _ }; _ }
                      as scan_node }
    when table <> "$dual"
         && not (Engine_core.Faultkit.armed ctx.Exec_ctx.faults) ->
    (* Fused head: the scan node's wrapper is bypassed, so armed fault
       points take the per-node pipeline below. *)
    compile_filter_scan ctx ~pred ~table ~cols ~scan_node
  | Physical.Filter { pred; child } ->
    let cfact = compile ctx child in
    let test = Expr_compile.compile_pred ctx pred in
    fun () ->
      let csrc = cfact () in
      fun sink -> csrc (fun row -> if test row then sink row)
  | Physical.Project { cols; child }
    when (not ctx.Exec_ctx.interpret_exprs) && projection_perm cols <> None
    -> (
    let perm = Option.get (projection_perm cols) in
    let n = Array.length perm in
    match child.Physical.op with
    | Physical.Hash_join
        { kind; lkeys; rkeys; residual = None; left; right; right_arity } ->
      (* Projection-over-join fusion: each joined tuple is built directly
         in projected order from the probe and build rows, with no
         full-width intermediate. The join node keeps its own metrics
         and guard wrapper. *)
      let combine lrow rrow =
        let la = Array.length lrow in
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
        instrument ctx child (fun () ->
            hash_join ctx child ~combine ~kind ~lkeys ~rkeys ~residual:None
              ~left ~right ~right_arity)
      in
      with_kernel generic (late_join ctx ~perm ~kind ~lkeys ~rkeys ~left ~right)
    | _ ->
      (* A column permutation is an index loop, and an identity one over
         a child of the same width (the planner's SELECT-* stack) is the
         child itself. *)
      let cfact = compile ctx child in
      let identity =
        Physical.arity child = n
        && Array.for_all Fun.id (Array.mapi ( = ) perm)
      in
      if identity then cfact
      else
        fun () ->
          let csrc = cfact () in
          fun sink -> csrc (fun row -> sink (Tuple.project row perm)))
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
    hash_join ctx plan ~combine:Tuple.append ~kind ~lkeys ~rkeys ~residual
      ~left ~right ~right_arity
  | Physical.Index_nl_join
      { kind; left; left_key; table; base_col; cols; chain; residual;
        right_arity } ->
    (* The row engine's probe chain, wired to the push join emission. *)
    let lfact = compile ctx left in
    let open_probe =
      Executor.index_probe ctx ~left_key ~table ~base_col ~cols ~chain
    in
    let residual = Option.map (Expr_compile.compile_pred ctx) residual in
    let null_pad = Array.make right_arity Value.Null in
    fun () ->
      let probe = open_probe () in
      let lsrc = lfact () in
      fun sink ->
        lsrc
          (join_emit ~kind ~combine:Tuple.append ~null_pad ~residual ~probe
             sink)
  | Physical.Apply { kind; outer; inner } ->
    let ofact = compile ctx outer in
    let ifact = compile ctx inner in
    let null_pad = Array.make (Physical.arity inner) Value.Null in
    (* Run [f] with [row] as the correlation parameters, restored on every
       exit. The inner plan is opened once per outer row (its open-time
       effects, as in the row engine). *)
    let under row f =
      let saved = ctx.Exec_ctx.params in
      ctx.Exec_ctx.params <- row :: saved;
      match f () with
      | v ->
        ctx.Exec_ctx.params <- saved;
        v
      | exception e ->
        ctx.Exec_ctx.params <- saved;
        raise e
    in
    (* Whether the inner plan has a row: stopped after one push. *)
    let nonempty row =
      let exception First in
      under row (fun () ->
          match ifact () (fun _ -> raise_notrace First) with
          | () -> false
          | exception First -> true)
    in
    fun () ->
      let osrc = ofact () in
      fun sink ->
        osrc (fun row ->
            match kind with
            | Logical.A_semi -> if nonempty row then sink row
            | Logical.A_anti -> if not (nonempty row) then sink row
            | Logical.A_outer ->
              (* Each inner row goes on as it arrives, as the row engine
                 returns it before pulling the next (so fault sites fire
                 in its order); the operators above see their own
                 parameters, not [row]. *)
              let matched = ref false in
              under row (fun () ->
                  let params = ctx.Exec_ctx.params in
                  ifact () (fun r ->
                      matched := true;
                      ctx.Exec_ctx.params <- List.tl params;
                      sink (Tuple.append row r);
                      ctx.Exec_ctx.params <- params));
              if not !matched then sink (Tuple.append row null_pad))
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
      fun sink ->
        lsrc
          (join_emit ~kind ~combine:Tuple.append ~null_pad ~residual:pred
             ~probe sink)
  | Physical.Hash_semi_join { anti; left; left_key; right; right_key } ->
    let st = stats_of ctx plan in
    let lfact = compile ctx left in
    let rfact = compile ctx right in
    let lkey = Expr_compile.compile ctx left_key in
    let rkey = Expr_compile.compile ctx right_key in
    fun () ->
      let side = Executor.semi_join_side () in
      timed st (fun () ->
          let rsrc = rfact () in
          rsrc (fun row -> Executor.semi_join_add ctx side (rkey row)));
      let lsrc = lfact () in
      fun sink ->
        lsrc (fun row ->
            if Executor.semi_join_passes ~anti side (lkey row) then sink row)
  | Physical.Hash_agg { keys; aggs; child } ->
    (* The generic path is always compiled (and its operators registered
       for metrics); the fused kernel takes over at open time when the
       store and the expression shapes allow it. *)
    with_kernel
      (compile_group ctx plan keys aggs child)
      (fused_agg ctx plan keys aggs child)
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
  | Physical.Limit { n; child } ->
    (* The child is opened even for n <= 0, as in the row engine, but its
       source never runs. *)
    let cfact = compile ctx child in
    fun () ->
      let csrc = cfact () in
      fun sink ->
        if n > 0 then begin
          let exception Stop in
          let left = ref n in
          try
            csrc (fun row ->
                sink row;
                decr left;
                if !left = 0 then raise_notrace Stop)
          with Stop -> ()
        end
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
   armed nothing can cancel mid-scan, so the rows read are counted and
   charged once on exit ({!charge_scanned}). The [?hide] virtual delete
   goes through the cursor, like the row engine. *)
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
    let fill () =
      match cols with
      | None -> Table.fill_chunk t ~slot buf ~max:scan_chunk
      | Some idxs ->
        Table.fill_chunk_proj t ~slot buf ~max:scan_chunk ~cols:idxs
    in
    if Exec_ctx.guards_armed ctx then
      let rec loop () =
        let n = fill () in
        if n > 0 then begin
          for i = 0 to n - 1 do
            Exec_ctx.note_scanned ctx;
            sink buf.(i)
          done;
          loop ()
        end
      in
      loop ()
    else
      let rec loop () =
        let n = fill () in
        if n > 0 then begin
          let i = ref 0 in
          (match
             while !i < n do
               let row = Array.unsafe_get buf !i in
               incr i;
               sink row
             done
           with
          | () -> charge_scanned ctx None n
          | exception e ->
            charge_scanned ctx None !i;
            raise e);
          loop ()
        end
      in
      loop ()

(* Fused Filter-over-scan pipeline head. On a columnar table the
   predicate compiles to a slot-level {!Col_pred} kernel: only surviving
   slots are materialized (late materialization without chunk or
   selection-vector bookkeeping). On heap tables the predicate is
   remapped through the scan projection ({!Scalar.shift_cols}) and
   tested against the base row, so only survivors pay the projection
   allocation. Budget charging is per row whenever a guard is armed
   (cancellation-point parity with the row engine), otherwise the rows
   read are counted and charged on exit ({!charge_scanned}). The scan
   node's metrics are maintained inline so EXPLAIN ANALYZE still shows
   scanned-vs-surviving rows per node. *)
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
    let t = Exec_ctx.resolve_table ctx table in
    let hide = Exec_ctx.hide_for ctx table in
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
      let readers =
        Array.map
          (fun col -> Column_store.reader cs ~col)
          (match cols with
          | Some idxs -> idxs
          | None -> Array.init (Schema.arity (Table.schema t)) Fun.id)
      in
      let width = Array.length readers in
      let read s =
        let row = Array.make width Value.Null in
        for i = 0 to width - 1 do
          Array.unsafe_set row i ((Array.unsafe_get readers i) s)
        done;
        row
      in
      fun sink ->
        let stop = Table.next_slot t in
        if guards then
          for s = 0 to stop - 1 do
            if Column_store.is_live cs s then begin
              Exec_ctx.note_scanned ctx;
              Exec_ctx.check_guards ctx;
              count_row scan_st;
              if k s = Col_pred.holds then sink (read s)
            end
          done
        else begin
          let scanned = ref 0 in
          match
            for s = 0 to stop - 1 do
              if Column_store.is_live cs s then begin
                incr scanned;
                if k s = Col_pred.holds then sink (read s)
              end
            done
          with
          | () -> charge_scanned ctx scan_st !scanned
          | exception e ->
            charge_scanned ctx scan_st !scanned;
            raise e
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
          if guards then
            let rec loop () =
              let n = Table.fill_chunk t ~slot buf ~max:scan_chunk in
              if n > 0 then begin
                for i = 0 to n - 1 do
                  Exec_ctx.note_scanned ctx;
                  Exec_ctx.check_guards ctx;
                  count_row scan_st;
                  let row = buf.(i) in
                  if test_raw row then sink (project row)
                done;
                loop ()
              end
            in
            loop ()
          else
            let rec loop () =
              let n = Table.fill_chunk t ~slot buf ~max:scan_chunk in
              if n > 0 then begin
                let i = ref 0 in
                (match
                   while !i < n do
                     let row = Array.unsafe_get buf !i in
                     incr i;
                     if test_raw row then sink (project row)
                   done
                 with
                | () -> charge_scanned ctx scan_st n
                | exception e ->
                  charge_scanned ctx scan_st !i;
                  raise e);
                loop ()
              end
            in
            loop ())

(* Generic hash join. The right side is built at open, as the row engine
   does, into {!bucket}s that each probe reads in insertion order.
   Single-
   column keys probe a {!Value.Hashtbl_v} directly: [Value.hash] and
   [Value.equal] are what {!Tuple.Hashtbl_t} applies per element, so
   match sets are unchanged and no key array is built per row. *)
and hash_join ctx plan ~combine ~kind ~lkeys ~rkeys ~residual ~left ~right
    ~right_arity : factory =
  let st = stats_of ctx plan in
  let lfact = compile ctx left in
  let rfact = compile ctx right in
  let lkeys = Array.map (Expr_compile.compile ctx) lkeys in
  let rkeys = Array.map (Expr_compile.compile ctx) rkeys in
  let residual = Option.map (Expr_compile.compile_pred ctx) residual in
  let null_pad = Array.make right_arity Value.Null in
  let build : unit -> Tuple.t -> Tuple.t list =
    if Array.length lkeys = 1 && Array.length rkeys = 1 then begin
      let lk = lkeys.(0) and rk = rkeys.(0) in
      fun () ->
        let tbl = Value.Hashtbl_v.create 1024 in
        rfact () (fun row ->
            Exec_ctx.note_materialized ctx;
            let k = rk row in
            if not (Value.is_null k) then
              match Value.Hashtbl_v.find tbl k with
              | b -> bucket_add b row
              | exception Not_found -> Value.Hashtbl_v.add tbl k (bucket row));
        fun lrow ->
          let k = lk lrow in
          if Value.is_null k then []
          else
            match Value.Hashtbl_v.find tbl k with
            | b -> bucket_rows b
            | exception Not_found -> []
    end
    else
      fun () ->
        let tbl = Tuple.Hashtbl_t.create 1024 in
        rfact () (fun row ->
            Exec_ctx.note_materialized ctx;
            let k = Array.map (fun f -> f row) rkeys in
            if not (Array.exists Value.is_null k) then
              match Tuple.Hashtbl_t.find tbl k with
              | b -> bucket_add b row
              | exception Not_found -> Tuple.Hashtbl_t.add tbl k (bucket row));
        fun lrow ->
          let k = Array.map (fun f -> f lrow) lkeys in
          if Array.exists Value.is_null k then []
          else
            match Tuple.Hashtbl_t.find tbl k with
            | b -> bucket_rows b
            | exception Not_found -> []
  in
  fun () ->
    let probe = timed st build in
    let lsrc = lfact () in
    fun sink -> lsrc (join_emit ~kind ~combine ~null_pad ~residual ~probe sink)

(* Late-materializing hash join under a column permutation: a single-key
   inner join whose probe (left) or build (right) side is a (filtered)
   columnar scan on an int/date key column. That side is never
   materialized as tuples: its slots are tested with the {!Col_pred}
   kernel and its key read from the unboxed column, and each output row
   is built directly in projected order. The kernel fuses whichever side
   the planner expects to be larger, where the avoided tuples are.
   Match sets, emission order (probe order, build insertion order within
   a key) and the scanned/materialized counters are the generic path's.

   Compile-time [None] for any other shape and with metrics on (the
   bypassed nodes would show no rows in EXPLAIN ANALYZE); open-time
   [None] through {!kernel_store}, for a non-int key column, or for a
   key outside ±2^53, where several ints round to one float and only
   the boxed {!Value.equal} table is exact. *)
and late_join ctx ~perm ~kind ~lkeys ~rkeys ~left ~right =
  if
    kind <> Logical.J_inner
    || Metrics.enabled ctx.Exec_ctx.metrics
    || Array.length lkeys <> 1
    || Array.length rkeys <> 1
  then None
  else if left.Physical.est >= right.Physical.est then
    late_probe ctx ~perm ~lkey:lkeys.(0) ~rkey:rkeys.(0) ~left ~right
  else late_build ctx ~perm ~lkey:lkeys.(0) ~rkey:rkeys.(0) ~left ~right

(* Columnar probe side: the build child runs generically at open; each
   live probe slot that passes the predicate is looked up by its unboxed
   key, and its projected cells are decoded once and shared by every
   match. *)
and late_probe ctx ~perm ~lkey ~rkey ~left ~right =
  match (scan_head left, lkey) with
  | Some h, Scalar.Col kc ->
    let rk = Expr_compile.compile ctx rkey in
    let rfact = compile ctx right in
    let n = Array.length perm in
    Some
      (fun () ->
        match kernel_store ctx h.table with
        | None -> None
        | Some (t, cs) -> (
          match (int_key_column cs (h.col kc), slot_pred ctx cs h.pred) with
          | Some (karr, knulls, is_date), Some kern ->
            let build = ref [] in
            rfact () (fun row ->
                Exec_ctx.note_materialized ctx;
                build := (rk row, row) :: !build);
            (* [!build] is newest first: consing walks it into buckets in
               insertion order. *)
            let ambiguous =
              (not is_date)
              && List.exists
                   (function
                     | Value.Float f, _ ->
                       Float.is_integer f && Float.abs f >= float_of_int two53
                     | _ -> false)
                   !build
            in
            let find =
              if ambiguous then begin
                let tbl = Value.Hashtbl_v.create 1024 in
                List.iter
                  (fun (v, row) ->
                    if not (Value.is_null v) then
                      Value.Hashtbl_v.replace tbl v
                        (row
                        :: (try Value.Hashtbl_v.find tbl v with Not_found -> [])))
                  !build;
                fun k ->
                  try Value.Hashtbl_v.find tbl (Value.Int k)
                  with Not_found -> []
              end
              else begin
                let tbl : (int, Tuple.t list) Hashtbl.t = Hashtbl.create 1024 in
                List.iter
                  (fun (v, row) ->
                    match exact_int ~is_date v with
                    | Some k ->
                      Hashtbl.replace tbl k
                        (row
                        :: (try Hashtbl.find tbl k with Not_found -> []))
                    | None -> ())
                  !build;
                fun k -> (try Hashtbl.find tbl k with Not_found -> [])
              end
            in
            let read =
              Array.map
                (fun j ->
                  if j < h.arity then Column_store.reader cs ~col:(h.col j)
                  else fun _ -> Value.Null)
                perm
            in
            Some
              (fun sink ->
                let stop = Table.next_slot t in
                let cells = Array.make n Value.Null in
                let scanned = ref 0 in
                match
                  for s = 0 to stop - 1 do
                    if Column_store.is_live cs s then begin
                      incr scanned;
                      if
                        kern s = Col_pred.holds
                        && not (Column_store.Bitmap.get knulls s)
                      then
                        match find (Array.unsafe_get karr s) with
                        | [] -> ()
                        | cands ->
                          for i = 0 to n - 1 do
                            let j = Array.unsafe_get perm i in
                            if j < h.arity then
                              cells.(i) <- (Array.unsafe_get read i) s
                          done;
                          List.iter
                            (fun rrow ->
                              let out = Array.make n Value.Null in
                              for i = 0 to n - 1 do
                                let j = Array.unsafe_get perm i in
                                Array.unsafe_set out i
                                  (if j < h.arity then
                                     Array.unsafe_get cells i
                                   else Array.unsafe_get rrow (j - h.arity))
                              done;
                              sink out)
                            cands
                    end
                  done
                with
                | () -> charge_scanned ctx None !scanned
                | exception e ->
                  charge_scanned ctx None !scanned;
                  raise e)
          | _ -> None))
  | _ -> None

(* Columnar build side: surviving build slots are bucketed by their
   unboxed key as raw slot numbers, then probe rows come from the
   generically compiled left child and each matched build cell is
   decoded straight into its projected position. *)
and late_build ctx ~perm ~lkey ~rkey ~left ~right =
  match (scan_head right, rkey) with
  | Some h, Scalar.Col kc ->
    let lk = Expr_compile.compile ctx lkey in
    let lfact = compile ctx left in
    let n = Array.length perm in
    Some
      (fun () ->
        match kernel_store ctx h.table with
        | None -> None
        | Some (t, cs) -> (
          match (int_key_column cs (h.col kc), slot_pred ctx cs h.pred) with
          | Some (karr, knulls, is_date), Some kern ->
            let stop = Table.next_slot t in
            let huge = ref false in
            if not is_date then
              for s = 0 to stop - 1 do
                if
                  Column_store.is_live cs s
                  && not (Column_store.Bitmap.get knulls s)
                then begin
                  let a = Array.unsafe_get karr s in
                  if a >= two53 || a <= -two53 then huge := true
                end
              done;
            if !huge then None
            else begin
              (* Build: no fallback past this point — counters move.
                 Slots are visited last to first so each bucket conses
                 up in insertion order. *)
              let tbl : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
              let scanned = ref 0 in
              for s = stop - 1 downto 0 do
                if Column_store.is_live cs s then begin
                  incr scanned;
                  if kern s = Col_pred.holds then begin
                    Exec_ctx.note_materialized ctx;
                    if not (Column_store.Bitmap.get knulls s) then begin
                      let k = Array.unsafe_get karr s in
                      Hashtbl.replace tbl k
                        (s :: (try Hashtbl.find tbl k with Not_found -> []))
                    end
                  end
                end
              done;
              Exec_ctx.note_scanned_many ctx !scanned;
              let read =
                Array.init h.arity (fun j ->
                    Column_store.reader cs ~col:(h.col j))
              in
              let lsrc = lfact () in
              Some
                (fun sink ->
                  lsrc (fun lrow ->
                      match exact_int ~is_date (lk lrow) with
                      | None -> ()
                      | Some k -> (
                        match Hashtbl.find tbl k with
                        | exception Not_found -> ()
                        | slots ->
                          let la = Array.length lrow in
                          List.iter
                            (fun s ->
                              let out = Array.make n Value.Null in
                              for i = 0 to n - 1 do
                                let j = Array.unsafe_get perm i in
                                Array.unsafe_set out i
                                  (if j < la then Array.unsafe_get lrow j
                                   else (Array.unsafe_get read (j - la)) s)
                              done;
                              sink out)
                            slots)))
            end
          | _ -> None))
  | _ -> None

(* Fused aggregation: Hash_agg over a (filtered) base-table scan runs on
   slot numbers, with no input tuple materialized. Two kernels:

   - count-only: no predicate, no grouping, only COUNT(<star>) — the
     live-row count of any store is the answer, charged to the scan
     counter in O(1);
   - grouped (columnar): the predicate as a {!Col_pred} kernel, group
     keys as packed dictionary codes (the code one past the dictionary
     stands in for NULL, so NULLs group together as {!Tuple} equality
     groups them), arguments as unboxed {!Col_pred.compile_num} kernels
     feeding {!Aggregate.add_int}/{!add_float}. No keys is the scalar
     case: one group, and one default row over empty input.

   Groups are emitted in first-seen order with [note_materialized] per
   group (once for a scalar aggregate that saw a row), as in
   {!compile_group}. An Audit_probe child breaks the shape and keeps its
   evidence; sessions {!kernel_table} refuses fall back. The bypassed
   scan/filter operators keep their metrics entries, with rows = scanned
   / survivors as in the unfused pipeline. *)
and fused_agg ctx plan keys aggs child : (unit -> source option) option =
  match scan_head child with
  | None -> None
  | Some h -> (
    let agg_arr = Array.of_list aggs in
    let agg_st =
      if Metrics.enabled ctx.Exec_ctx.metrics then
        Metrics.find ctx.Exec_ctx.metrics plan
      else None
    in
    let note_scan scanned kept =
      Exec_ctx.note_scanned_many ctx scanned;
      if Metrics.enabled ctx.Exec_ctx.metrics then begin
        let bump node rows =
          match Metrics.find ctx.Exec_ctx.metrics node with
          | Some s ->
            s.Metrics.opens <- s.Metrics.opens + 1;
            s.Metrics.rows <- s.Metrics.rows + rows
          | None -> ()
        in
        bump h.scan scanned;
        if h.pred <> None then bump child kept
      end
    in
    let finals states = Array.map Aggregate.final states in
    if
      keys = [] && h.pred = None
      && Array.for_all (fun a -> a.Logical.arg = None) agg_arr
    then
      Some
        (fun () ->
          Option.map
            (fun t ->
              let n = Table.cardinality t in
              let states = Array.map Aggregate.create agg_arr in
              Array.iter (fun st -> Aggregate.update_many st n) states;
              if n > 0 then Exec_ctx.note_materialized ctx;
              note_scan n n;
              let out = finals states in
              fun sink -> sink out)
            (kernel_table ctx h.table))
    else
      let key_cols =
        List.map
          (function Scalar.Col i, _ -> Some (h.col i) | _ -> None)
          keys
      in
      if List.mem None key_cols then None
      else
        let key_cols = Array.of_list (List.map Option.get key_cols) in
        let nkeys = Array.length key_cols in
        let args =
          Array.map
            (fun a -> Option.map (Scalar.shift_cols h.col) a.Logical.arg)
            agg_arr
        in
        Some
          (fun () ->
            match kernel_store ctx h.table with
            | None -> None
            | Some (t, cs) -> (
              let update = function
                | None -> Some (fun st _ -> Aggregate.update st None)
                | Some e -> (
                  match Col_pred.compile_num ctx cs e with
                  | Some (Col_pred.Kint f, nullk) ->
                    Some
                      (fun st s -> if not (nullk s) then Aggregate.add_int st (f s))
                  | Some (Col_pred.Kfloat f, nullk) ->
                    Some
                      (fun st s ->
                        if not (nullk s) then Aggregate.add_float st (f s))
                  | None -> None)
              in
              let dict_key i =
                match Column_store.col_data cs i with
                | Column_store.Codes (a, d) ->
                  Some (a, Column_store.col_nulls cs i, d, Column_store.Dict.size d)
                | _ -> None
              in
              let upds = Array.map update args in
              let key_info = Array.map dict_key key_cols in
              match slot_pred ctx cs h.pred with
              | Some kern
                when Array.for_all Option.is_some upds
                     && Array.for_all Option.is_some key_info ->
                let upds = Array.map Option.get upds in
                let key_info = Array.map Option.get key_info in
                (* Packed keys must fit an int with room to spare. *)
                let product =
                  Array.fold_left
                    (fun acc (_, _, _, size) ->
                      if acc > 1 lsl 44 / (size + 1) then max_int
                      else acc * (size + 1))
                    1 key_info
                in
                if product = max_int then None
                else begin
                  let pack s =
                    let k = ref 0 in
                    for j = 0 to nkeys - 1 do
                      let codes, nulls, _, size = Array.unsafe_get key_info j in
                      let c =
                        if Column_store.Bitmap.get nulls s then size
                        else Array.unsafe_get codes s
                      in
                      k := (!k * (size + 1)) + c
                    done;
                    !k
                  in
                  let decode k =
                    let vals = Array.make nkeys Value.Null in
                    let k = ref k in
                    for j = nkeys - 1 downto 0 do
                      let _, _, d, size = key_info.(j) in
                      let c = !k mod (size + 1) in
                      k := !k / (size + 1);
                      if c < size then
                        vals.(j) <- Value.Str (Column_store.Dict.decode d c)
                    done;
                    vals
                  in
                  (* First-seen order, states alongside. *)
                  let order = ref [] in
                  let fresh key =
                    Exec_ctx.note_materialized ctx;
                    let states = Array.map Aggregate.create agg_arr in
                    order := (key, states) :: !order;
                    states
                  in
                  let group =
                    if product <= 4096 then begin
                      let groups = Array.make product None in
                      fun key ->
                        match Array.unsafe_get groups key with
                        | Some states -> states
                        | None ->
                          let states = fresh key in
                          groups.(key) <- Some states;
                          states
                    end
                    else begin
                      let groups = Hashtbl.create 256 in
                      fun key ->
                        match Hashtbl.find_opt groups key with
                        | Some states -> states
                        | None ->
                          let states = fresh key in
                          Hashtbl.replace groups key states;
                          states
                    end
                  in
                  let nagg = Array.length upds in
                  let scanned = ref 0 and kept = ref 0 in
                  timed agg_st (fun () ->
                      for s = 0 to Table.next_slot t - 1 do
                        if Column_store.is_live cs s then begin
                          incr scanned;
                          if kern s = Col_pred.holds then begin
                            incr kept;
                            let states = group (pack s) in
                            for i = 0 to nagg - 1 do
                              (Array.unsafe_get upds i)
                                (Array.unsafe_get states i)
                                s
                            done
                          end
                        end
                      done);
                  note_scan !scanned !kept;
                  let rows =
                    match !order with
                    | [] when nkeys = 0 ->
                      (* Scalar aggregate over empty input: one default row. *)
                      [ finals (Array.map Aggregate.create agg_arr) ]
                    | order ->
                      List.rev_map
                        (fun (key, states) ->
                          Tuple.append (decode key) (finals states))
                        order
                  in
                  Some (fun sink -> List.iter sink rows)
                end
              | _ -> None)))

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

(* Root-inclusive timing for EXPLAIN ANALYZE: the root stats record gets
   the whole run. *)
let timed_run ctx plan f =
  timed
    (if Metrics.enabled ctx.Exec_ctx.metrics then
       Metrics.find ctx.Exec_ctx.metrics plan
     else None)
    f

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
