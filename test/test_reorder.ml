(** Cost-based join reordering: cardinality estimation sanity, Cartesian
    avoidance, column-order restoration, semantic preservation, and
    interaction with audit-operator placement. *)

open Storage
open Plan

let check = Alcotest.check

let tpch =
  lazy
    (let db = Fixtures.create () in
     ignore (Tpch.Dbgen.load db ~sf:0.002);
     ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
     db)

(* --------------------------------------------------------------- *)
(* Cardinality estimation                                           *)
(* --------------------------------------------------------------- *)

let test_estimate_sanity () =
  let db = Lazy.force tpch in
  let catalog = Db.Database.catalog db in
  let est sql =
    Cardinality.estimate catalog
      (Optimizer.push_down (Binder.query catalog (Sql.Parser.query sql)))
  in
  let scan = est "SELECT * FROM customer" in
  let filtered = est "SELECT * FROM customer WHERE c_mktsegment = 'BUILDING'" in
  check Alcotest.bool "filter reduces the estimate" true (filtered < scan);
  let joined = est "SELECT 1 FROM customer c, orders o WHERE c.c_custkey = o.o_custkey" in
  let cross = est "SELECT 1 FROM customer c, orders o" in
  check Alcotest.bool "equi join far below cross product" true
    (joined < cross /. 10.0);
  let limited = est "SELECT TOP 5 c_name FROM customer ORDER BY c_name" in
  check (Alcotest.float 0.01) "limit caps" 5.0 limited

let test_selectivity_bounds () =
  let s = Cardinality.selectivity in
  let within lo hi x = x >= lo && x <= hi in
  check Alcotest.bool "eq" true
    (within 0.0 0.5 (s (Scalar.Binop (Sql.Ast.Eq, Scalar.Col 0, Scalar.Const (Value.Int 1)))));
  check Alcotest.bool "and product" true
    (s (Scalar.Binop (Sql.Ast.And,
         Scalar.Binop (Sql.Ast.Eq, Scalar.Col 0, Scalar.Const (Value.Int 1)),
         Scalar.Binop (Sql.Ast.Eq, Scalar.Col 1, Scalar.Const (Value.Int 2))))
    < s (Scalar.Binop (Sql.Ast.Eq, Scalar.Col 0, Scalar.Const (Value.Int 1))));
  check Alcotest.bool "or is bounded by 1" true
    (within 0.0 1.0
       (s (Scalar.Binop (Sql.Ast.Or,
             Scalar.Is_null (Scalar.Col 0, true),
             Scalar.Is_null (Scalar.Col 1, true)))))

(* --------------------------------------------------------------- *)
(* Reordering                                                       *)
(* --------------------------------------------------------------- *)

(* In-order list of scan tables of the join tree (ignoring wrappers). *)
let rec join_order (p : Logical.t) : string list =
  match p with
  | Logical.Scan { table; _ } -> [ table ]
  | Logical.Filter { child; _ }
  | Logical.Project { child; _ }
  | Logical.Sort { child; _ }
  | Logical.Limit { child; _ }
  | Logical.Group_by { child; _ } ->
    join_order child
  | Logical.Distinct c -> join_order c
  | Logical.Join { left; right; _ } -> join_order left @ join_order right
  | Logical.Semi_join { left; _ } -> join_order left
  | Logical.Apply { outer; _ } -> join_order outer
  | Logical.Audit { child; _ } -> join_order child
  | Logical.Set_op { left; right; _ } -> join_order left @ join_order right

(* Worst possible FROM order: the two biggest tables first, unconnected. *)
let bad_order_sql =
  "SELECT c_name, n_name FROM lineitem l, region r, customer c, orders o, \
   nation n WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey \
   AND c.c_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey AND \
   r.r_name = 'ASIA' AND o.o_totalprice > 50000"

let test_reorder_avoids_cartesian () =
  let db = Lazy.force tpch in
  let catalog = Db.Database.catalog db in
  let raw = Binder.query catalog (Sql.Parser.query bad_order_sql) in
  let noreorder = Optimizer.push_down raw in
  let reordered = Join_reorder.reorder catalog noreorder in
  let e_no = Cardinality.estimate catalog noreorder in
  let e_yes = Cardinality.estimate catalog reordered in
  check Alcotest.bool
    (Printf.sprintf "estimated cost improves (%.0f -> %.0f)" e_no e_yes)
    true (e_yes < e_no);
  (* lineitem (the largest table) must not be joined first anymore. *)
  (match join_order reordered with
  | first :: _ ->
    check Alcotest.bool "does not start from lineitem" true
      (first <> "lineitem")
  | [] -> Alcotest.fail "no scans found");
  (* And the results are identical. *)
  let ctx = Db.Database.context db in
  let run p =
    Exec.Exec_ctx.reset_query_state ctx;
    List.sort Tuple.compare
      (Exec.Executor.run_list ctx (Db.Database.physical db p))
  in
  check Fixtures.tuples "same results" (run noreorder) (run reordered)

let test_reorder_restores_column_order () =
  let db = Lazy.force tpch in
  let catalog = Db.Database.catalog db in
  let raw = Binder.query catalog (Sql.Parser.query bad_order_sql) in
  let a = Logical.schema (Optimizer.push_down raw) in
  let b = Logical.schema (Join_reorder.reorder catalog (Optimizer.push_down raw)) in
  check Alcotest.string "schemas identical" (Schema.to_string a)
    (Schema.to_string b)

(* Reordering changes float summation order, so aggregate cells can differ
   in their last bits: compare values with a relative tolerance. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let rows_close a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1 : Tuple.t) r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 value_close r1 r2)
       a b

let test_reorder_tpch_results_stable () =
  (* Every TPC-H query returns the same rows (modulo float-associativity
     noise in aggregates) with and without the reorderer. *)
  let db = Lazy.force tpch in
  let catalog = Db.Database.catalog db in
  let ctx = Db.Database.context db in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      let bound = Binder.query catalog (Sql.Parser.query q.Tpch.Queries.sql) in
      let plain =
        Optimizer.prune (Optimizer.logical_optimize bound)
      in
      let reordered =
        Optimizer.prune (Optimizer.logical_optimize ~catalog bound)
      in
      let run p =
        Exec.Exec_ctx.reset_query_state ctx;
        List.sort Tuple.compare
          (Exec.Executor.run_list ctx (Db.Database.physical db p))
      in
      if not (rows_close (run plain) (run reordered)) then
        Alcotest.failf "%s differs under reordering" q.Tpch.Queries.id)
    Tpch.Queries.all

let test_reorder_keeps_audit_guarantees () =
  let db = Lazy.force tpch in
  (* Placement runs after reordering in Db.plan_sql: the inclusion chain
     must hold on the reordered bad-order query. *)
  let lineage = Fixtures.lineage_ids db ~audit:"audit_customer" bad_order_sql in
  let hcn =
    Fixtures.audit_ids db ~audit:"audit_customer"
      ~heuristic:Audit_core.Placement.Hcn bad_order_sql
  in
  let leaf =
    Fixtures.audit_ids db ~audit:"audit_customer"
      ~heuristic:Audit_core.Placement.Leaf bad_order_sql
  in
  check Alcotest.bool "lineage subset hcn" true (Fixtures.subset lineage hcn);
  check Alcotest.bool "hcn subset leaf" true (Fixtures.subset hcn leaf);
  (* SJ query: Theorem 3.7 exactness survives reordering. *)
  check Fixtures.values "hcn = lineage (SJ)" lineage hcn

let suite =
  [
    Alcotest.test_case "cardinality estimates are sane" `Quick
      test_estimate_sanity;
    Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds;
    Alcotest.test_case "reordering avoids Cartesian starts" `Quick
      test_reorder_avoids_cartesian;
    Alcotest.test_case "column order restored" `Quick
      test_reorder_restores_column_order;
    Alcotest.test_case "TPC-H results stable under reordering" `Slow
      test_reorder_tpch_results_stable;
    Alcotest.test_case "audit guarantees survive reordering" `Quick
      test_reorder_keeps_audit_guarantees;
  ]
