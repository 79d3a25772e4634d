(** Direct scalar-evaluation tests: three-valued logic truth tables, string
    functions, CASE, COALESCE, date arithmetic and evaluation errors. *)

open Storage
open Plan

let check = Alcotest.check
let vt = Fixtures.value

let ctx = lazy (Exec.Exec_ctx.create (Catalog.create ()))

let eval ?(row = [||]) e = Exec.Eval.eval (Lazy.force ctx) row e
let c v = Scalar.Const v
let vb b = Value.Bool b
let vi i = Value.Int i
let vs s = Value.Str s

let parse_eval ?(schema = [||]) ?(row = [||]) src =
  let e =
    Plan.Binder.scalar (Catalog.create ()) schema (Sql.Parser.expression src)
  in
  Exec.Eval.eval (Lazy.force ctx) row e

(* --------------------------------------------------------------- *)
(* Kleene truth tables                                              *)
(* --------------------------------------------------------------- *)

let tvl = [ Some true; Some false; None ]

let lift = function
  | Some b -> vb b
  | None -> Value.Null

let test_and_or_truth_tables () =
  let kleene_and a b =
    match (a, b) with
    | Some false, _ | _, Some false -> Some false
    | Some true, Some true -> Some true
    | _ -> None
  in
  let kleene_or a b =
    match (a, b) with
    | Some true, _ | _, Some true -> Some true
    | Some false, Some false -> Some false
    | _ -> None
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check vt "AND" (lift (kleene_and a b))
            (eval (Scalar.Binop (Sql.Ast.And, c (lift a), c (lift b))));
          check vt "OR" (lift (kleene_or a b))
            (eval (Scalar.Binop (Sql.Ast.Or, c (lift a), c (lift b)))))
        tvl)
    tvl;
  check vt "NOT NULL is NULL" Value.Null (eval (Scalar.Not (c Value.Null)))

let test_comparisons_null () =
  List.iter
    (fun op ->
      check vt "null comparison" Value.Null
        (eval (Scalar.Binop (op, c Value.Null, c (vi 1)))))
    Sql.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ];
  check vt "is null" (vb true) (eval (Scalar.Is_null (c Value.Null, false)));
  check vt "is not null" (vb false)
    (eval (Scalar.Is_null (c Value.Null, true)))

let test_in_list_nulls () =
  check vt "null IN list" Value.Null
    (eval (Scalar.In_list (c Value.Null, [| vi 1 |], false)));
  check vt "hit" (vb true) (eval (Scalar.In_list (c (vi 1), [| vi 1; vi 2 |], false)));
  check vt "negated miss" (vb true)
    (eval (Scalar.In_list (c (vi 9), [| vi 1; vi 2 |], true)))

(* A list with a NULL member answers NULL, not FALSE, for an operand it
   does not contain: the operand might equal the NULL. Each of the four
   places that apply the rule — the interpreter, the row compiler, the
   constant folder, and (through SQL, in [test_exec]) the columnar
   kernels — must agree. *)
let test_in_list_null_member () =
  let cases =
    [
      (* operand, members, negated, expected *)
      (vi 1, [| vi 1; Value.Null |], false, vb true);
      (vi 1, [| vi 2; Value.Null |], false, Value.Null);
      (vi 1, [| vi 1; Value.Null |], true, vb false);
      (vi 1, [| vi 2; Value.Null |], true, Value.Null);
      (vi 1, [| vi 2; vi 3 |], true, vb true);
      (Value.Null, [| vi 1 |], true, Value.Null);
    ]
  in
  let compile_ctx = Lazy.force ctx in
  List.iter
    (fun (v, vs, neg, expected) ->
      let what = Fmt.str "%a" Scalar.pp (Scalar.In_list (c v, vs, neg)) in
      let over_col = Scalar.In_list (Scalar.Col 0, vs, neg) in
      check vt ("eval " ^ what) expected (eval ~row:[| v |] over_col);
      check vt ("compiled " ^ what) expected
        ((Exec.Expr_compile.compile compile_ctx over_col) [| v |]);
      check vt ("folded " ^ what) expected
        (match Optimizer.fold_scalar (Scalar.In_list (c v, vs, neg)) with
        | Scalar.Const r -> r
        | e -> Alcotest.failf "not folded: %a" Scalar.pp e))
    cases

(* --------------------------------------------------------------- *)
(* Functions                                                        *)
(* --------------------------------------------------------------- *)

let test_string_functions () =
  check vt "upper" (vs "ABC") (parse_eval "upper('abc')");
  check vt "lower" (vs "abc") (parse_eval "lower('ABC')");
  check vt "substring 1-based" (vs "bc") (parse_eval "substring('abcd', 2, 2)");
  check vt "substring overrun clamps" (vs "d") (parse_eval "substring('abcd', 4, 9)");
  check vt "substring past end" (vs "") (parse_eval "substring('abcd', 9, 2)");
  check vt "concat" (vs "ab") (parse_eval "'a' || 'b'");
  check vt "concat null" Value.Null (parse_eval "'a' || NULL");
  check vt "coalesce picks first non-null" (vi 2)
    (parse_eval "coalesce(NULL, 2, 3)");
  check vt "coalesce all null" Value.Null (parse_eval "coalesce(NULL, NULL)");
  check vt "abs" (vi 4) (parse_eval "abs(-4)")

let test_case_nesting () =
  check vt "first matching WHEN wins" (vs "two")
    (parse_eval
       "CASE WHEN 1 = 2 THEN 'one' WHEN 2 = 2 THEN 'two' WHEN TRUE THEN \
        'three' END");
  check vt "no match no else" Value.Null
    (parse_eval "CASE WHEN FALSE THEN 1 END");
  check vt "null condition skips" (vi 7)
    (parse_eval "CASE WHEN NULL THEN 1 ELSE 7 END");
  check vt "nested" (vi 42)
    (parse_eval
       "CASE WHEN TRUE THEN CASE WHEN FALSE THEN 0 ELSE 42 END ELSE 1 END")

let test_date_functions () =
  check vt "extract year" (vi 1998)
    (parse_eval "extract(YEAR FROM DATE '1998-08-02')");
  check vt "extract month" (vi 8)
    (parse_eval "extract(MONTH FROM DATE '1998-08-02')");
  check vt "minus interval day"
    (Value.Date (Value.date_of_string "1998-09-02"))
    (parse_eval "DATE '1998-12-01' - INTERVAL '90' DAY");
  check vt "plus interval month clamp"
    (Value.Date (Value.date_of_string "1995-02-28"))
    (parse_eval "DATE '1995-01-31' + INTERVAL '1' MONTH");
  check vt "date comparison" (vb true)
    (parse_eval "DATE '1995-01-01' < DATE '1995-06-01'");
  check vt "date between" (vb true)
    (parse_eval
       "DATE '1995-03-01' BETWEEN DATE '1995-01-01' AND DATE '1995-06-01'")

let test_arith_mixed () =
  check vt "int division truncates" (vi 2) (parse_eval "5 / 2");
  check vt "float promotes" (Value.Float 2.5) (parse_eval "5 / 2.0");
  check vt "modulo" (vi 1) (parse_eval "7 % 3");
  check vt "precedence" (vi 7) (parse_eval "1 + 2 * 3");
  check vt "unary minus" (vi (-3)) (parse_eval "-(1 + 2)")

let test_eval_errors () =
  (match parse_eval "1 AND TRUE" with
  | exception Exec.Eval.Eval_error _ -> ()
  | v -> Alcotest.failf "AND on int should fail, got %s" (Value.to_string v));
  (match parse_eval "upper(5)" with
  | exception Exec.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "upper on int should fail");
  match parse_eval "1 / 0" with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "division by zero should fail"

let test_params_outside_apply () =
  match eval (Scalar.Param 0) with
  | exception Exec.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "param outside apply should fail"

let suite =
  [
    Alcotest.test_case "Kleene AND/OR truth tables" `Quick
      test_and_or_truth_tables;
    Alcotest.test_case "NULL comparisons" `Quick test_comparisons_null;
    Alcotest.test_case "IN lists and NULL" `Quick test_in_list_nulls;
    Alcotest.test_case "IN list with a NULL member" `Quick
      test_in_list_null_member;
    Alcotest.test_case "string functions" `Quick test_string_functions;
    Alcotest.test_case "CASE nesting" `Quick test_case_nesting;
    Alcotest.test_case "date functions" `Quick test_date_functions;
    Alcotest.test_case "mixed arithmetic" `Quick test_arith_mixed;
    Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
    Alcotest.test_case "params outside apply" `Quick test_params_outside_apply;
  ]
