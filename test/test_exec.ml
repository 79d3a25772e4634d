(** End-to-end SQL semantics: every operator and expression form the engine
    supports, executed through the full parse→bind→optimize→prune→execute
    pipeline on small fixtures with hand-computed expected results. *)

open Storage

let check = Alcotest.check
let vi i = Value.Int i
let vs s = Value.Str s
let vf f = Value.Float f

let fixture () =
  let db = Fixtures.healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE TABLE visits (visitid INT PRIMARY KEY, patientid INT, day \
        DATE, cost FLOAT)");
  ignore
    (Db.Database.exec db
       "INSERT INTO visits VALUES (1, 1, DATE '1995-01-10', 100.0), (2, 1, \
        DATE '1995-02-10', 250.0), (3, 2, DATE '1995-01-15', 50.0), (4, 3, \
        DATE '1996-07-01', 75.0), (5, 9, DATE '1996-08-01', 20.0)");
  db

let q db sql = Fixtures.rows_sorted db sql
let qo db sql = Db.Database.query db sql (* order-preserving *)

let test_projection_and_filter () =
  let db = fixture () in
  check Fixtures.tuples "simple filter"
    [ [| vi 2; vs "Bob" |] ]
    (q db "SELECT patientid, name FROM patients WHERE age < 30 AND zip = 48109");
  check Fixtures.tuples "expression projection"
    [ [| vi 44 |] ]
    (q db "SELECT age + 10 FROM patients WHERE name = 'Alice'");
  check Fixtures.tuples "select star count" []
    (q db "SELECT * FROM patients WHERE age > 100")

let test_inner_join () =
  let db = fixture () in
  check Fixtures.tuples "equi join"
    [ [| vs "Alice"; vs "cancer" |]; [| vs "Dave"; vs "cancer" |] ]
    (q db
       "SELECT name, disease FROM patients p, disease d WHERE p.patientid = \
        d.patientid AND disease = 'cancer'");
  (* Join with non-equi residual. *)
  check Fixtures.tuples "residual predicate"
    [ [| vs "Carol" |] ]
    (q db
       "SELECT name FROM patients p JOIN visits v ON p.patientid = \
        v.patientid AND p.age > 60")

let test_left_outer_join () =
  let db = fixture () in
  (* Eve (5) has no visit; visit 5 references a missing patient. *)
  check Fixtures.tuples "loj null padding"
    [
      [| vs "Alice"; vf 100.0 |]; [| vs "Alice"; vf 250.0 |];
      [| vs "Bob"; vf 50.0 |]; [| vs "Carol"; vf 75.0 |];
      [| vs "Dave"; Value.Null |]; [| vs "Eve"; Value.Null |];
    ]
    (q db
       "SELECT name, cost FROM patients p LEFT JOIN visits v ON p.patientid \
        = v.patientid")

let test_loj_on_vs_where () =
  let db = fixture () in
  (* Predicate in ON keeps unmatched left rows; in WHERE it filters them. *)
  check Alcotest.int "ON predicate" 6
    (List.length
       (q db
          "SELECT name, cost FROM patients p LEFT JOIN visits v ON \
           p.patientid = v.patientid AND cost > 60"));
  check Alcotest.int "WHERE predicate" 3
    (List.length
       (q db
          "SELECT name, cost FROM patients p LEFT JOIN visits v ON \
           p.patientid = v.patientid WHERE cost > 60"))

let test_group_by_having () =
  let db = fixture () in
  check Fixtures.tuples "count per disease"
    [ [| vs "cancer"; vi 2 |]; [| vs "flu"; vi 2 |] ]
    (q db
       "SELECT disease, count(*) FROM disease GROUP BY disease HAVING \
        count(*) > 1");
  check Fixtures.tuples "sum/avg/min/max"
    [ [| vi 1; vf 350.0; vf 175.0; vf 100.0; vf 250.0 |] ]
    (q db
       "SELECT patientid, sum(cost), avg(cost), min(cost), max(cost) FROM \
        visits WHERE patientid = 1 GROUP BY patientid")

let test_scalar_aggregate () =
  let db = fixture () in
  check Fixtures.tuples "count star" [ [| vi 5 |] ]
    (q db "SELECT count(*) FROM patients");
  check Fixtures.tuples "empty input still one row"
    [ [| vi 0; Value.Null |] ]
    (q db "SELECT count(*), sum(cost) FROM visits WHERE cost > 10000");
  check Fixtures.tuples "count distinct"
    [ [| vi 3 |] ]
    (q db "SELECT count(DISTINCT disease) FROM disease")

let test_group_by_expression () =
  let db = fixture () in
  check Fixtures.tuples "group by extract(year)"
    [ [| vi 1995; vi 3 |]; [| vi 1996; vi 2 |] ]
    (q db
       "SELECT extract(YEAR FROM day), count(*) FROM visits GROUP BY \
        extract(YEAR FROM day)")

let test_order_by_limit () =
  let db = fixture () in
  check Fixtures.tuples "top 2 youngest (ordered)"
    [ [| vs "Bob"; vi 22 |]; [| vs "Eve"; vi 29 |] ]
    (qo db "SELECT TOP 2 name, age FROM patients ORDER BY age");
  check Fixtures.tuples "order by alias desc"
    [ [| vs "Carol"; vi 67 |]; [| vs "Dave"; vi 45 |] ]
    (qo db "SELECT name, age AS years FROM patients ORDER BY years DESC LIMIT 2");
  check Fixtures.tuples "order by agg alias"
    [ [| vi 1; vf 350.0 |]; [| vi 3; vf 75.0 |] ]
    (qo db
       "SELECT TOP 2 patientid, sum(cost) AS total FROM visits GROUP BY \
        patientid ORDER BY total DESC")

let test_distinct () =
  let db = fixture () in
  check Fixtures.tuples "distinct"
    [ [| vi 10 |]; [| vi 20 |]; [| vi 30 |] ]
    (q db "SELECT DISTINCT deptid FROM departments");
  check Fixtures.tuples "distinct with order and limit"
    [ [| vi 30 |]; [| vi 20 |] ]
    (qo db "SELECT DISTINCT deptid FROM departments ORDER BY deptid DESC LIMIT 2")

let test_in_exists_subqueries () =
  let db = fixture () in
  check Fixtures.tuples "uncorrelated IN"
    [ [| vs "Alice" |]; [| vs "Dave" |] ]
    (q db
       "SELECT name FROM patients WHERE patientid IN (SELECT patientid FROM \
        disease WHERE disease = 'cancer')");
  check Fixtures.tuples "NOT IN"
    [ [| vs "Bob" |]; [| vs "Carol" |]; [| vs "Eve" |] ]
    (q db
       "SELECT name FROM patients WHERE patientid NOT IN (SELECT patientid \
        FROM disease WHERE disease = 'cancer')");
  check Fixtures.tuples "correlated EXISTS"
    [ [| vs "Alice" |] ]
    (q db
       "SELECT name FROM patients p WHERE EXISTS (SELECT 1 FROM visits v \
        WHERE v.patientid = p.patientid AND v.cost > 200)");
  check Fixtures.tuples "correlated NOT EXISTS"
    [ [| vs "Dave" |]; [| vs "Eve" |] ]
    (q db
       "SELECT name FROM patients p WHERE NOT EXISTS (SELECT 1 FROM visits \
        v WHERE v.patientid = p.patientid)")

let test_correlated_in () =
  let db = fixture () in
  (* Paper Fig 4(c) shape: correlated IN over a self-join. *)
  check Fixtures.tuples "correlated IN self-join" []
    (q db
       "SELECT name FROM patients p1 WHERE name IN (SELECT name FROM \
        patients p2 WHERE p1.zip <> p2.zip)");
  ignore
    (Db.Database.exec db
       "INSERT INTO patients VALUES (6, 'Alice', 50, 11111)");
  check Fixtures.tuples "now two Alices in different zips"
    [ [| vi 1 |]; [| vi 6 |] ]
    (q db
       "SELECT p1.patientid FROM patients p1 WHERE name IN (SELECT name \
        FROM patients p2 WHERE p1.zip <> p2.zip)")

let test_scalar_subquery () =
  let db = fixture () in
  check Fixtures.tuples "scalar subquery in WHERE"
    [ [| vs "Carol" |] ]
    (q db
       "SELECT name FROM patients WHERE age = (SELECT max(age) FROM \
        patients)");
  check Fixtures.tuples "correlated scalar subquery in SELECT"
    [
      [| vi 1; vi 2 |]; [| vi 2; vi 1 |]; [| vi 3; vi 1 |]; [| vi 4; vi 0 |];
      [| vi 5; vi 0 |];
    ]
    (q db
       "SELECT p.patientid, (SELECT count(*) FROM visits v WHERE \
        v.patientid = p.patientid) FROM patients p")

let test_null_semantics () =
  let db = fixture () in
  ignore (Db.Database.exec db "INSERT INTO patients VALUES (7, NULL, NULL, 1)");
  check Fixtures.tuples "null filtered by comparison" []
    (q db "SELECT patientid FROM patients WHERE age > 0 AND patientid = 7");
  check Fixtures.tuples "is null"
    [ [| vi 7 |] ]
    (q db "SELECT patientid FROM patients WHERE name IS NULL");
  check Fixtures.tuples "count skips nulls"
    [ [| vi 5; vi 6 |] ]
    (q db "SELECT count(name), count(*) FROM patients");
  check Fixtures.tuples "avg skips nulls"
    [ [| vf ((34.0 +. 22.0 +. 67.0 +. 45.0 +. 29.0) /. 5.0) |] ]
    (q db "SELECT avg(age) FROM patients")

(* [x NOT IN (1, NULL)] is never TRUE: a miss against a list with a NULL
   member is NULL. Checked on both engines over both storages (the
   compiled engine's columnar kernels apply the rule on their own), for
   each kind of column, and for a constant operand the optimizer folds. *)
let test_in_list_null_member () =
  List.iter
    (fun (exec, storage) ->
      let config = { Fixtures.config with Db.Config.exec; storage } in
      let db = Fixtures.create ~config () in
      let e sql = ignore (Db.Database.exec db sql) in
      e "CREATE TABLE a (x INT, s VARCHAR, f FLOAT, d DATE)";
      e
        "INSERT INTO a VALUES (1, 'a', 1.0, DATE '1995-01-01'), (2, 'b', \
         2.0, DATE '1995-01-02')";
      let where cond expected =
        check Fixtures.tuples
          (Printf.sprintf "%s (%s)" cond (Fixtures.string_of_config config))
          expected
          (q db ("SELECT x FROM a WHERE " ^ cond))
      in
      where "x NOT IN (1, NULL)" [];
      where "NOT (x IN (3, NULL))" [];
      where "x IN (1, NULL)" [ [| vi 1 |] ];
      where "x NOT IN (3, 4)" [ [| vi 1 |]; [| vi 2 |] ];
      where "s NOT IN ('a', NULL)" [];
      where "f NOT IN (1.0, NULL)" [];
      where "d NOT IN (DATE '1995-01-01', NULL)" [];
      where "1 NOT IN (2, NULL)" [];
      check Fixtures.tuples "count(*) with NOT IN (1, NULL)"
        [ [| vi 0 |] ]
        (q db "SELECT count(*) FROM a WHERE x NOT IN (1, NULL)"))
    [
      (`Row, Table.Heap);
      (`Row, Table.Columnar);
      (`Compiled, Table.Heap);
      (`Compiled, Table.Columnar);
    ]

let test_case_like_strings () =
  let db = fixture () in
  check Fixtures.tuples "case expression"
    [ [| vs "Alice"; vs "senior" |] ]
    (q db
       "SELECT name, CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END \
        FROM patients WHERE name = 'Alice'");
  check Fixtures.tuples "like"
    [ [| vs "Carol" |] ]
    (q db "SELECT name FROM patients WHERE name LIKE 'C%'");
  check Fixtures.tuples "upper/substring"
    [ [| vs "ALI" |] ]
    (q db "SELECT upper(substring(name, 1, 3)) FROM patients WHERE patientid = 1")

let test_date_predicates () =
  let db = fixture () in
  check Fixtures.tuples "date range"
    [ [| vi 1 |]; [| vi 3 |] ]
    (q db
       "SELECT visitid FROM visits WHERE day >= DATE '1995-01-01' AND day < \
        DATE '1995-01-01' + INTERVAL '1' MONTH");
  check Fixtures.tuples "between dates"
    [ [| vi 4 |]; [| vi 5 |] ]
    (q db
       "SELECT visitid FROM visits WHERE day BETWEEN DATE '1996-01-01' AND \
        DATE '1996-12-31'")

let test_derived_tables () =
  let db = fixture () in
  check Fixtures.tuples "aggregate over derived table"
    [ [| vi 2; vi 1 |]; [| vi 1; vi 3 |] ]
    (qo db
       "SELECT visit_count, count(*) FROM (SELECT patientid AS pid, \
        count(*) AS visit_count FROM visits GROUP BY patientid) t GROUP BY \
        visit_count ORDER BY visit_count DESC")

let test_cross_join_and_multi_table () =
  let db = fixture () in
  check Fixtures.tuples "three-way join"
    [ [| vs "Alice"; vs "cancer"; vi 10 |] ]
    (q db
       "SELECT name, disease, deptid FROM patients p, disease d, \
        departments dep WHERE p.patientid = d.patientid AND p.patientid = \
        dep.patientid AND p.name = 'Alice'");
  check Alcotest.int "cross product size" 25
    (List.length (q db "SELECT 1 FROM patients a, patients b"))

let test_insert_select_update_delete () =
  let db = fixture () in
  ignore
    (Db.Database.exec db
       "CREATE TABLE archive (patientid INT, name VARCHAR)");
  (match
     Db.Database.exec db
       "INSERT INTO archive SELECT patientid, name FROM patients WHERE age \
        > 40"
   with
  | Db.Database.Affected 2 -> ()
  | r -> Alcotest.failf "expected 2 inserted, got %s" (Db.Database.result_to_string r));
  (match Db.Database.exec db "UPDATE patients SET age = age + 1 WHERE zip = 48109" with
  | Db.Database.Affected 2 -> ()
  | _ -> Alcotest.fail "update count");
  check Fixtures.tuples "updated"
    [ [| vi 23 |]; [| vi 35 |] ]
    (q db "SELECT age FROM patients WHERE zip = 48109");
  (match Db.Database.exec db "DELETE FROM archive WHERE name = 'Dave'" with
  | Db.Database.Affected 1 -> ()
  | _ -> Alcotest.fail "delete count");
  check Alcotest.int "one archived left" 1
    (List.length (q db "SELECT * FROM archive"))

let test_with_cte () =
  let db = fixture () in
  check Fixtures.tuples "single CTE"
    [ [| vs "Alice" |]; [| vs "Dave" |] ]
    (q db
       "WITH sick AS (SELECT patientid FROM disease WHERE disease = \
        'cancer') SELECT name FROM patients WHERE patientid IN (SELECT \
        patientid FROM sick)");
  check Fixtures.tuples "CTE referenced twice"
    [ [| vi 2 |] ]
    (q db
       "WITH counts AS (SELECT patientid AS pid, count(*) AS n FROM visits \
        GROUP BY patientid) SELECT n FROM counts WHERE n = (SELECT max(n) \
        FROM counts c2)");
  check Fixtures.tuples "CTE referencing an earlier CTE"
    [ [| vs "Bob" |]; [| vs "Carol" |] ]
    (q db
       "WITH sick AS (SELECT patientid FROM disease WHERE disease = 'flu'), \
        named AS (SELECT name FROM patients p, sick s WHERE p.patientid = \
        s.patientid) SELECT name FROM named");
  check Fixtures.tuples "CTE inside a subquery"
    [ [| vi 5 |] ]
    (q db
       "SELECT (WITH c AS (SELECT count(*) AS n FROM patients) SELECT n \
        FROM c)")

let test_from_less_select () =
  let db = fixture () in
  check Fixtures.tuples "constant select" [ [| vi 3 |] ] (q db "SELECT 1 + 2");
  check Fixtures.tuples "scalar subquery only"
    [ [| vi 5 |] ]
    (q db "SELECT (SELECT count(*) FROM patients)")

(* [x NOT IN (subquery)] by SQL's three-valued rule: FALSE when the
   subquery holds [x], NULL when it holds a NULL or [x] is NULL (over a
   non-empty subquery), TRUE over an empty one; WHERE keeps only TRUE. *)
let test_not_in_subquery_nulls () =
  List.iter
    (fun (exec, storage) ->
      let config = { Fixtures.config with Db.Config.exec; storage } in
      let db = Fixtures.create ~config () in
      let e sql = ignore (Db.Database.exec db sql) in
      e "CREATE TABLE a (x INT)";
      e "CREATE TABLE b (y INT, g INT)";
      e "CREATE TABLE b2 (y INT, g INT)";
      e "CREATE TABLE empty (y INT)";
      e "INSERT INTO a VALUES (1), (2), (NULL)";
      e "INSERT INTO b VALUES (1, 1), (NULL, 1)";
      e "INSERT INTO b2 VALUES (1, 1)";
      let where cond expected =
        check Fixtures.tuples
          (Printf.sprintf "%s (%s)" cond (Fixtures.string_of_config config))
          (List.sort Tuple.compare expected)
          (q db ("SELECT x FROM a WHERE " ^ cond))
      in
      let null = Value.Null in
      where "x NOT IN (SELECT y FROM b)" [];
      where "x NOT IN (SELECT y FROM empty)" [ [| vi 1 |]; [| vi 2 |]; [| null |] ];
      where "x NOT IN (SELECT y FROM b2)" [ [| vi 2 |] ];
      where "x IN (SELECT y FROM b)" [ [| vi 1 |] ];
      where "NOT EXISTS (SELECT y FROM b)" [];
      where "NOT EXISTS (SELECT y FROM empty)" [ [| vi 1 |]; [| vi 2 |]; [| null |] ];
      (* correlated: an Apply over the filtered subquery *)
      where "x NOT IN (SELECT b.y FROM b WHERE b.g <= a.x)" [ [| null |] ];
      where "x NOT IN (SELECT b2.y FROM b2 WHERE b2.g <> a.x OR a.x IS NULL)"
        [ [| vi 1 |]; [| vi 2 |] ];
      where "x IN (SELECT b.y FROM b WHERE b.g <= a.x)" [ [| vi 1 |] ];
      check Fixtures.tuples "count(*) with NOT IN over a NULL"
        [ [| vi 0 |] ]
        (q db "SELECT count(*) FROM a WHERE x NOT IN (SELECT y FROM b)"))
    [ (`Row, Table.Heap); (`Compiled, Table.Columnar) ]

let string_contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  go 0

let test_error_messages () =
  let db = fixture () in
  let expect_error sql fragment =
    match Db.Database.exec db sql with
    | exception Db.Database.Db_error m ->
      if not (string_contains m fragment) then
        Alcotest.failf "error %S does not mention %S" m fragment
    | _ -> Alcotest.failf "expected error for %s" sql
  in
  expect_error "SELECT nope FROM patients" "nope";
  expect_error "SELECT * FROM nope" "nope";
  expect_error "SELECT name FROM patients GROUP BY age" "GROUP BY";
  expect_error "SELECT patientid FROM patients p, disease d" "ambiguous"

let suite =
  [
    Alcotest.test_case "projection and filter" `Quick test_projection_and_filter;
    Alcotest.test_case "inner joins" `Quick test_inner_join;
    Alcotest.test_case "left outer join" `Quick test_left_outer_join;
    Alcotest.test_case "LOJ: ON vs WHERE" `Quick test_loj_on_vs_where;
    Alcotest.test_case "group by / having" `Quick test_group_by_having;
    Alcotest.test_case "scalar aggregates" `Quick test_scalar_aggregate;
    Alcotest.test_case "group by expression" `Quick test_group_by_expression;
    Alcotest.test_case "order by / top / limit" `Quick test_order_by_limit;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "IN / EXISTS subqueries" `Quick test_in_exists_subqueries;
    Alcotest.test_case "correlated IN (Fig 4c shape)" `Quick test_correlated_in;
    Alcotest.test_case "scalar subqueries" `Quick test_scalar_subquery;
    Alcotest.test_case "NULL semantics" `Quick test_null_semantics;
    Alcotest.test_case "IN list with a NULL member" `Quick
      test_in_list_null_member;
    Alcotest.test_case "CASE / LIKE / string functions" `Quick test_case_like_strings;
    Alcotest.test_case "date predicates" `Quick test_date_predicates;
    Alcotest.test_case "derived tables" `Quick test_derived_tables;
    Alcotest.test_case "multi-table joins" `Quick test_cross_join_and_multi_table;
    Alcotest.test_case "INSERT/UPDATE/DELETE" `Quick test_insert_select_update_delete;
    Alcotest.test_case "WITH (CTEs)" `Quick test_with_cte;
    Alcotest.test_case "FROM-less SELECT" `Quick test_from_less_select;
    Alcotest.test_case "error messages" `Quick test_error_messages;
    Alcotest.test_case "NOT IN subquery with NULLs (3VL)" `Quick
      test_not_in_subquery_nulls;
  ]
