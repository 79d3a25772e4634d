(** Volcano-style execution of physical plans.

    The executor consumes {!Plan.Physical.t} only: every strategy decision
    — hash- vs nested-loop join selection, equi-key extraction, the
    index-nested-loop refinement, TopK fusion — was already made by
    {!Plan.Physical.plan_of_logical}. [compile ctx plan] turns the
    physical tree into a cursor *factory*; invoking the factory opens a
    fresh execution. Correlated [Apply] operators invoke their inner
    factory once per outer row, with the outer row pushed on the context's
    parameter stack. Scalar expressions are compiled once per plan by
    {!Expr_compile}; the {!Eval} interpreter remains the semantic oracle
    behind [ctx.interpret_exprs].

    The physical audit operator (§IV-A2) is a no-op hash probe: it looks up
    the ID column of every passing row in the audit expression's materialized
    sensitive-ID set and records hits in the per-query ACCESSED state. It
    never filters — instrumented plans return exactly the rows of the plain
    plan. *)

open Storage
open Plan

exception Exec_error = Exec_ctx.Exec_error

(** The installed probe table and log an audit operator marks into,
    resolved when its cursor opens. *)
let audit_slot ctx audit_name =
  match Exec_ctx.audit_slot ctx ~audit_name with
  | Some s -> s
  | None ->
    raise
      (Exec_error
         (Printf.sprintf "audit operator for %s: sensitive-ID set not installed"
            audit_name))

type cursor = unit -> Tuple.t option
type factory = unit -> cursor

let drain (c : cursor) : Tuple.t list =
  let rec go acc = match c () with None -> List.rev acc | Some r -> go (r :: acc) in
  go []

(* Drain into a buffer a blocking operator will hold live, charging each
   tuple against the context's memory budget. *)
let drain_tracked ctx (c : cursor) : Tuple.t list =
  let rec go acc =
    match c () with
    | None -> List.rev acc
    | Some r ->
      Exec_ctx.note_materialized ctx;
      go (r :: acc)
  in
  go []

(* The right side of an index-nested-loop join, shared by both engines:
   per left row, an index lookup on the right base table, each fetched
   row pushed through the right side's physical Filter/AuditProbe chain.
   Metrics stay attributable per chain node even though the chain's
   operators are folded into the lookup (row and probe counts land on the
   chain nodes; time stays on the join). Compiling registers the chain
   bottom-up; invoking the result opens it (table, [?hide] partition,
   audit slots) and returns the per-left-row probe. *)
let index_probe ctx ~left_key ~table ~base_col ~cols ~chain :
    unit -> Tuple.t -> Tuple.t list =
  let lkey = Expr_compile.compile ctx left_key in
  let stats_of n =
    if Metrics.enabled ctx.Exec_ctx.metrics then
      Some (Metrics.register ctx.Exec_ctx.metrics n)
    else None
  in
  let count = function
    | Some s -> s.Metrics.rows <- s.Metrics.rows + 1
    | None -> ()
  in
  (* Decompose the physical chain: scan node at the bottom, then the ops
     above it in application (bottom-up) order. *)
  let scan_node, ops =
    let rec go node acc =
      match node.Physical.op with
      | Physical.Seq_scan _ -> (node, acc)
      | Physical.Filter { pred; child } ->
        go child ((`Filter pred, node) :: acc)
      | Physical.Audit_probe { audit_name; id_col; child } ->
        go child ((`Audit (audit_name, id_col), node) :: acc)
      | _ ->
        raise (Exec_error "index-lookup probe chain is not Filter/Audit/Scan")
    in
    go chain []
  in
  let scan_st = stats_of scan_node in
  (* Compile the chain ops into closures (audit mark tables resolved at
     open). *)
  let compiled_ops =
    List.map
      (fun (op, op_node) ->
        let st = stats_of op_node in
        match op with
        | `Filter pred ->
          let test = Expr_compile.compile_pred ctx pred in
          `Static
            (fun row ->
              if test row then begin
                count st;
                Some row
              end
              else None)
        | `Audit (audit_name, id_col) -> `Audit (audit_name, id_col, st))
      ops
  in
  fun () ->
    let t = Exec_ctx.resolve_table ctx table in
    let hide = Exec_ctx.hide_for ctx table in
    let opened_ops =
      List.map
        (function
          | `Static f -> f
          | `Audit (audit_name, id_col, st) ->
            let slot = audit_slot ctx audit_name in
            fun row ->
              Exec_ctx.probe ctx slot st row.(id_col);
              count st;
              Some row)
        compiled_ops
    in
    let through_chain base_row =
      Exec_ctx.note_scanned ctx;
      count scan_st;
      let projected =
        match cols with
        | None -> base_row
        | Some idxs -> Tuple.project base_row idxs
      in
      List.fold_left
        (fun acc op -> match acc with Some r -> op r | None -> None)
        (Some projected) opened_ops
    in
    fun lrow ->
      let v = lkey lrow in
      if Value.is_null v then []
      else
        match Table.lookup ?hide t ~col:base_col v with
        | Some rows -> List.filter_map through_chain rows
        | None -> []

(* When metrics collection is enabled, every compiled operator is wrapped so
   each getNext call is counted and timed against the node's [op_stats].
   Registration happens before children compile, so reports come out in plan
   pre-order; the record is found again later by physical node identity
   (EXPLAIN ANALYZE walks the same tree). *)
(* A hash semi-join's build side: its non-NULL keys, whether it had a
   row, and whether one of its keys was NULL. *)
type semi_join_side = {
  keys : unit Value.Hashtbl_v.t;
  mutable built : bool;
  mutable null_built : bool;
}

let semi_join_side () =
  { keys = Value.Hashtbl_v.create 256; built = false; null_built = false }

let semi_join_add ctx side k =
  side.built <- true;
  if Value.is_null k then side.null_built <- true
  else begin
    Exec_ctx.note_materialized ctx;
    Value.Hashtbl_v.replace side.keys k ()
  end

(* [x IN (subquery)] by SQL's three-valued rule, keeping the rows where
   it is TRUE (semi) or where [x NOT IN (subquery)] is TRUE (anti): a
   NOT IN row passes iff the subquery is empty, or its key is non-NULL,
   unseen, and no NULL was built. *)
let semi_join_passes ~anti side k =
  if anti then
    (not side.built)
    || (not (Value.is_null k))
       && (not side.null_built)
       && not (Value.Hashtbl_v.mem side.keys k)
  else (not (Value.is_null k)) && Value.Hashtbl_v.mem side.keys k

let rec compile (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
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
          | Some _ -> st.Metrics.rows <- st.Metrics.rows + 1
          | None -> ());
          r
    end
  in
  (* Guard/fault wrapper, compiled in only when a guard or a fault plan is
     armed — the plain hot path carries no per-row cost. *)
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
        Exec_ctx.check_guards ctx;
        c ()
  end

and compile_op (ctx : Exec_ctx.t) (plan : Physical.t) : factory =
  match plan.Physical.op with
  | Physical.Seq_scan { table; cols; _ } -> compile_scan ctx table cols
  | Physical.Filter { pred; child } ->
    let cf = compile ctx child in
    let test = Expr_compile.compile_pred ctx pred in
    fun () ->
      let c = cf () in
      let rec next () =
        match c () with
        | None -> None
        | Some row -> if test row then Some row else next ()
      in
      next
  | Physical.Project { cols; child } ->
    let cf = compile ctx child in
    let exprs =
      Array.of_list (List.map (fun (e, _) -> Expr_compile.compile ctx e) cols)
    in
    fun () ->
      let c = cf () in
      fun () ->
        (match c () with
        | None -> None
        | Some row -> Some (Array.map (fun f -> f row) exprs))
  | Physical.Hash_join { kind; lkeys; rkeys; residual; left; right; right_arity }
    ->
    compile_hash_join ctx kind ~lkeys ~rkeys ~residual ~left ~right
      ~right_arity
  | Physical.Nl_join { kind; pred; left; right; right_arity } ->
    compile_nl_join ctx kind ~pred ~left ~right ~right_arity
  | Physical.Index_nl_join
      { kind; left; left_key; table; base_col; cols; chain; residual;
        right_arity } ->
    compile_inl_join ctx kind ~left ~left_key ~table ~base_col ~cols ~chain
      ~residual ~right_arity
  | Physical.Hash_semi_join { anti; left; left_key; right; right_key } ->
    let lf = compile ctx left in
    let rf = compile ctx right in
    let lkey = Expr_compile.compile ctx left_key in
    let rkey = Expr_compile.compile ctx right_key in
    fun () ->
      let side = semi_join_side () in
      let rc = rf () in
      let rec build () =
        match rc () with
        | None -> ()
        | Some row ->
          semi_join_add ctx side (rkey row);
          build ()
      in
      build ();
      let lc = lf () in
      let rec next () =
        match lc () with
        | None -> None
        | Some row ->
          if semi_join_passes ~anti side (lkey row) then Some row else next ()
      in
      next
  | Physical.Apply { kind; outer; inner } -> compile_apply ctx kind outer inner
  | Physical.Hash_agg { keys; aggs; child } ->
    compile_group ctx keys aggs child
  | Physical.Sort { keys; child } ->
    let cf = compile ctx child in
    let sort_rows = compile_sorter ctx keys in
    fun () ->
      let sorted = sort_rows (drain_tracked ctx (cf ())) in
      let remaining = ref sorted in
      fun () ->
        (match !remaining with
        | [] -> None
        | r :: rest ->
          remaining := rest;
          Some r)
  | Physical.Top_k { n; keys; child } ->
    (* Fused Limit-over-Sort: full sort, bounded emission. *)
    let cf = compile ctx child in
    let sort_rows = compile_sorter ctx keys in
    fun () ->
      let sorted = sort_rows (drain_tracked ctx (cf ())) in
      let remaining = ref sorted in
      let left = ref n in
      fun () ->
        if !left <= 0 then None
        else begin
          match !remaining with
          | [] -> None
          | r :: rest ->
            remaining := rest;
            decr left;
            Some r
        end
  | Physical.Limit { n; child } ->
    let cf = compile ctx child in
    fun () ->
      let c = cf () in
      let remaining = ref n in
      fun () ->
        if !remaining <= 0 then None
        else begin
          match c () with
          | None -> None
          | Some row ->
            decr remaining;
            Some row
        end
  | Physical.Distinct child ->
    let cf = compile ctx child in
    fun () ->
      let c = cf () in
      let seen = Tuple.Hashtbl_t.create 256 in
      let rec next () =
        match c () with
        | None -> None
        | Some row ->
          if Tuple.Hashtbl_t.mem seen row then next ()
          else begin
            Tuple.Hashtbl_t.replace seen row ();
            Some row
          end
      in
      next
  | Physical.Set_op { op; left; right } -> (
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
            | Some r -> Some r
            | None ->
              on_left := false;
              next ()
          else rc ()
        in
        next
    | Sql.Ast.Union ->
      fun () ->
        let seen = Tuple.Hashtbl_t.create 256 in
        let lc = lf () in
        let rc = rf () in
        let on_left = ref true in
        let rec next () =
          let candidate =
            if !on_left then
              match lc () with
              | Some r -> Some r
              | None ->
                on_left := false;
                rc ()
            else rc ()
          in
          match candidate with
          | None -> None
          | Some row ->
            if Tuple.Hashtbl_t.mem seen row then next ()
            else begin
              Tuple.Hashtbl_t.replace seen row ();
              Some row
            end
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
          | Some r ->
            Exec_ctx.note_materialized ctx;
            Tuple.Hashtbl_t.replace right_set r ();
            build ()
        in
        build ();
        let emitted = Tuple.Hashtbl_t.create 256 in
        let lc = lf () in
        let rec next () =
          match lc () with
          | None -> None
          | Some row ->
            if
              Tuple.Hashtbl_t.mem right_set row = keep_if_in_right
              && not (Tuple.Hashtbl_t.mem emitted row)
            then begin
              Tuple.Hashtbl_t.replace emitted row ();
              Some row
            end
            else next ()
        in
        next)
  | Physical.Audit_probe { audit_name; id_col; child } ->
    let cf = compile ctx child in
    let st = Metrics.find ctx.Exec_ctx.metrics plan in
    fun () ->
      let slot = audit_slot ctx audit_name in
      let c = cf () in
      fun () ->
        match c () with
        | None -> None
        | Some row ->
          Exec_ctx.probe ctx slot st row.(id_col);
          Some row

and compile_scan ctx table cols : factory =
  if table = "$dual" then (fun () ->
    let done_ = ref false in
    fun () ->
      if !done_ then None
      else begin
        done_ := true;
        Some [||]
      end)
  else
    fun () ->
      let t = Exec_ctx.resolve_table ctx table in
      let hide = Exec_ctx.hide_for ctx table in
      let c = Table.cursor ?hide t in
      fun () ->
        match c () with
        | None -> None
        | Some row ->
          Exec_ctx.note_scanned ctx;
          Some
            (match cols with
            | None -> row
            | Some idxs -> Tuple.project row idxs)

and compile_hash_join ctx kind ~lkeys ~rkeys ~residual ~left ~right
    ~right_arity : factory =
  let lf = compile ctx left in
  let rf = compile ctx right in
  let lkeys = Array.map (Expr_compile.compile ctx) lkeys in
  let rkeys = Array.map (Expr_compile.compile ctx) rkeys in
  let residual = Option.map (Expr_compile.compile_pred ctx) residual in
  let null_pad = Array.make right_arity Value.Null in
  fun () ->
    (* Materialize and hash the build side. *)
    let rc = rf () in
    let tbl = Tuple.Hashtbl_t.create 1024 in
    let rec build () =
      match rc () with
      | None -> ()
      | Some row ->
        Exec_ctx.note_materialized ctx;
        let k = Array.map (fun f -> f row) rkeys in
        if not (Array.exists Value.is_null k) then
          Tuple.Hashtbl_t.replace tbl k
            (row :: (try Tuple.Hashtbl_t.find tbl k with Not_found -> []));
        build ()
    in
    build ();
    let probe lrow =
      let k = Array.map (fun f -> f lrow) lkeys in
      if Array.exists Value.is_null k then []
      else
        match Tuple.Hashtbl_t.find_opt tbl k with
        | Some rows -> List.rev rows
        | None -> []
    in
    let lc = lf () in
    join_emit ~kind ~null_pad ~residual ~probe lc

and compile_nl_join ctx kind ~pred ~left ~right ~right_arity : factory =
  let lf = compile ctx left in
  let rf = compile ctx right in
  let pred = Option.map (Expr_compile.compile_pred ctx) pred in
  let null_pad = Array.make right_arity Value.Null in
  fun () ->
    let right_rows = drain_tracked ctx (rf ()) in
    let probe _ = right_rows in
    let lc = lf () in
    join_emit ~kind ~null_pad ~residual:pred ~probe lc

(* Shared probe-side emission for hash and nested-loop joins: per left row,
   join candidate right rows, apply the residual, null-pad for LEFT JOIN. *)
and join_emit ~kind ~null_pad ~residual ~probe lc : cursor =
  let matches = ref [] in
  let rec next () =
    match !matches with
    | m :: rest ->
      matches := rest;
      Some m
    | [] -> (
      match lc () with
      | None -> None
      | Some lrow ->
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
        (match (joined, kind) with
        | [], Logical.J_left -> matches := [ Tuple.append lrow null_pad ]
        | _, _ -> matches := joined);
        next ())
  in
  next

and compile_inl_join ctx kind ~left ~left_key ~table ~base_col ~cols ~chain
    ~residual ~right_arity : factory =
  let lf = compile ctx left in
  let open_probe = index_probe ctx ~left_key ~table ~base_col ~cols ~chain in
  let residual = Option.map (Expr_compile.compile_pred ctx) residual in
  let null_pad = Array.make right_arity Value.Null in
  fun () ->
    let probe = open_probe () in
    let lc = lf () in
    join_emit ~kind ~null_pad ~residual ~probe lc

and compile_apply ctx kind outer inner : factory =
  let of_ = compile ctx outer in
  let inf = compile ctx inner in
  let null_pad = Array.make (Physical.arity inner) Value.Null in
  fun () ->
    let oc = of_ () in
    let with_params row f =
      ctx.Exec_ctx.params <- row :: ctx.Exec_ctx.params;
      Fun.protect
        ~finally:(fun () ->
          ctx.Exec_ctx.params <- List.tl ctx.Exec_ctx.params)
        f
    in
    (* [A_outer]: the outer row whose inner rows are being appended, its
       open inner cursor, and whether that cursor has yielded a row. *)
    let current = ref None in
    let rec next () =
      match !current with
      | Some (row, ic, matched) -> (
        match with_params row ic with
        | Some r ->
          current := Some (row, ic, true);
          Some (Tuple.append row r)
        | None ->
          current := None;
          if matched then next () else Some (Tuple.append row null_pad))
      | None -> (
        match oc () with
        | None -> None
        | Some row -> (
          match kind with
          | Logical.A_semi | Logical.A_anti ->
            let has_row = with_params row (fun () -> inf () () <> None) in
            let keep = if kind = Logical.A_semi then has_row else not has_row in
            if keep then Some row else next ()
          | Logical.A_outer ->
            current := Some (row, with_params row inf, false);
            next ()))
    in
    next

and compile_group ctx keys aggs child : factory =
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
  fun () ->
    let c = cf () in
    let groups : Aggregate.state array Tuple.Hashtbl_t.t =
      Tuple.Hashtbl_t.create 256
    in
    let order = ref [] in
    let rec consume () =
      match c () with
      | None -> ()
      | Some row ->
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
          states;
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
    let remaining = ref pending in
    fun () ->
      match !remaining with
      | [] -> None
      | r :: rest ->
        remaining := rest;
        Some r

(* Sorter over materialized rows, shared by Sort and TopK: keys compiled
   once, rows decorated, stable sort by the key vector. *)
and compile_sorter ctx keys : Tuple.t list -> Tuple.t list =
  let key_exprs = Array.of_list keys in
  let compiled =
    Array.map (fun (e, _) -> Expr_compile.compile ctx e) key_exprs
  in
  fun rows ->
    let decorated =
      List.map (fun row -> (Array.map (fun f -> f row) compiled, row)) rows
    in
    let cmp (ka, _) (kb, _) =
      let rec go i =
        if i = Array.length key_exprs then 0
        else
          let _, dir = key_exprs.(i) in
          let c = Value.compare_total ka.(i) kb.(i) in
          let c = match dir with Sql.Ast.Asc -> c | Sql.Ast.Desc -> -c in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    in
    List.map snd (List.stable_sort cmp decorated)

(* ------------------------------------------------------------------ *)
(* Convenience entry points                                            *)
(* ------------------------------------------------------------------ *)

(** Compile and run, materializing all result rows. *)
let run_list ctx plan : Tuple.t list = drain (compile ctx plan ())

(** Compile and run, consuming rows without materializing (benchmarks). *)
let run_count ctx plan : int =
  let c = compile ctx plan () in
  let rec go n = match c () with None -> n | Some _ -> go (n + 1) in
  go 0
