(** Static-analysis baseline tests ({!Db.Database.fga_verdict}) — Example
    6.1 and the predicate intersection cases. *)

let check = Alcotest.check

let verdict : Db.Database.fga_verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Db.Database.string_of_fga_verdict v))
    ( = )

let dept_db () =
  let db = Fixtures.create () in
  ignore
    (Db.Database.exec db
       "CREATE TABLE departmentnames (deptid INT PRIMARY KEY, deptname \
        VARCHAR)");
  ignore
    (Db.Database.exec db
       "INSERT INTO departmentnames VALUES (10, 'Oncology'), (11, \
        'Dermatology')");
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_derm AS SELECT * FROM \
        departmentnames WHERE deptname = 'Dermatology' FOR SENSITIVE TABLE \
        departmentnames, PARTITION BY deptid");
  db

let analyze db sql =
  Db.Database.fga_verdict db ~audit:"audit_derm" (Sql.Parser.query sql)

let test_example_6_1 () =
  let db = dept_db () in
  (* First query: same column, different constant — provably disjoint. *)
  check verdict "deptname = 'Oncology' is ruled out"
    Db.Database.No_access
    (analyze db "SELECT * FROM departmentnames WHERE deptname = 'Oncology'");
  (* Second query: semantically identical but via DeptID — static analysis
     cannot rule it out and false-positives. *)
  check verdict "deptid = 10 cannot be ruled out (FGA false positive)"
    Db.Database.May_access
    (analyze db "SELECT * FROM departmentnames WHERE deptid = 10");
  (* The execution-based auditors do not share the false positive. *)
  let exact =
    Fixtures.exact_ids db ~audit:"audit_derm"
      "SELECT * FROM departmentnames WHERE deptid = 10"
  in
  check Fixtures.values "audit operators: no access" [] exact

let test_ranges_and_in () =
  let db = dept_db () in
  check verdict "overlapping range" Db.Database.May_access
    (analyze db "SELECT * FROM departmentnames WHERE deptname >= 'D'");
  check verdict "disjoint range" Db.Database.No_access
    (analyze db "SELECT * FROM departmentnames WHERE deptname < 'B'");
  check verdict "IN list containing the value"
    Db.Database.May_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname IN ('Dermatology', \
        'Oncology')");
  check verdict "IN list without the value"
    Db.Database.No_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname IN ('Oncology', \
        'Radiology')");
  check verdict "inequality on the audited value"
    Db.Database.No_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname <> 'Dermatology' AND \
        deptname = 'Dermatology'")

let test_unconstrained_flags () =
  let db = dept_db () in
  check verdict "no predicate: flagged" Db.Database.May_access
    (analyze db "SELECT * FROM departmentnames");
  check verdict "opaque predicate (LIKE): flagged"
    Db.Database.May_access
    (analyze db "SELECT * FROM departmentnames WHERE deptname LIKE 'Derm%'");
  check verdict "disjunction: flagged (conservative)"
    Db.Database.May_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname = 'Oncology' OR deptid \
        = 3")

let test_between () =
  let db = dept_db () in
  check verdict "between covering" Db.Database.May_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname BETWEEN 'A' AND 'Z'");
  check verdict "between disjoint" Db.Database.No_access
    (analyze db
       "SELECT * FROM departmentnames WHERE deptname BETWEEN 'E' AND 'K'")

let suite =
  [
    Alcotest.test_case "Example 6.1" `Quick test_example_6_1;
    Alcotest.test_case "ranges and IN lists" `Quick test_ranges_and_in;
    Alcotest.test_case "unconstrained/opaque cases flag" `Quick
      test_unconstrained_flags;
    Alcotest.test_case "BETWEEN" `Quick test_between;
  ]
