(** Property tests of scalar-expression compilation: on randomly generated
    {!Plan.Scalar.t} trees and NULL-heavy random rows, the compiled closure
    ({!Exec.Expr_compile}) must agree with the {!Exec.Eval} interpreter —
    same values, same three-valued-logic outcomes, and the same
    [Eval_error]s. The constant-LIKE fast paths are also checked against
    {!Storage.Value.like_match} over random pattern/subject pairs. *)

open Storage
open Plan

let arity = 4

(* --------------------------------------------------------------- *)
(* Generators                                                       *)
(* --------------------------------------------------------------- *)

(* NULL-heavy values so three-valued logic is exercised constantly.
   Floats are small dyadic rationals: exact under [=], no NaN/inf. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, return Value.Null);
        (4, map (fun i -> Value.Int i) (int_range (-3) 3));
        (2, map (fun i -> Value.Float (float_of_int i /. 2.0)) (int_range (-4) 4));
        (2, map (fun b -> Value.Bool b) bool);
        (2, oneofl (List.map (fun s -> Value.Str s) [ ""; "a"; "ab"; "Alice"; "flu" ]));
        ( 1,
          oneofl
            (List.map
               (fun s -> Value.Date (Value.date_of_string s))
               [ "1995-01-31"; "1995-06-17"; "1996-12-01" ]) );
      ])

let gen_binop =
  QCheck.Gen.oneofl
    Sql.Ast.
      [ Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or; Concat ]

(* Mostly-sensible LIKE patterns so the classifier's fast paths (equality,
   prefix, suffix, substring) all get hit, plus general fallbacks. *)
let gen_like_pattern =
  QCheck.Gen.oneofl
    [ "Alice"; "A%"; "%e"; "%li%"; "a_b"; "%"; ""; "_"; "%a%b%"; "fl_" ]

let gen_func1 =
  QCheck.Gen.oneofl
    Scalar.[ F_upper; F_lower; F_abs; F_extract_year; F_extract_month ]

let gen_func2 =
  QCheck.Gen.oneofl
    Scalar.[ F_date_add Sql.Ast.Days; F_date_sub Sql.Ast.Months ]

let gen_expr =
  QCheck.Gen.(
    sized_size (int_range 0 6)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Scalar.Col i) (int_range 0 (arity - 1));
                 map (fun v -> Scalar.Const v) gen_value;
               ]
           in
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 (1, leaf);
                 ( 5,
                   map3
                     (fun op a b -> Scalar.Binop (op, a, b))
                     gen_binop sub sub );
                 (1, map (fun a -> Scalar.Neg a) sub);
                 (2, map (fun a -> Scalar.Not a) sub);
                 (2, map2 (fun a neg -> Scalar.Is_null (a, neg)) sub bool);
                 ( 2,
                   map3
                     (fun a p neg ->
                       Scalar.Like (a, Scalar.Const (Value.Str p), neg))
                     sub gen_like_pattern bool );
                 ( 2,
                   map3
                     (fun a vs neg -> Scalar.In_list (a, Array.of_list vs, neg))
                     sub
                     (list_size (int_range 0 4) gen_value)
                     bool );
                 ( 2,
                   map3
                     (fun whens els a ->
                       Scalar.Case
                         ( List.map (fun c -> (c, a)) whens,
                           if els then Some a else None ))
                     (list_size (int_range 1 2) sub)
                     bool sub );
                 (2, map2 (fun f a -> Scalar.Func (f, [ a ])) gen_func1 sub);
                 ( 1,
                   map3
                     (fun f a b -> Scalar.Func (f, [ a; b ]))
                     gen_func2 sub sub );
                 ( 1,
                   map3
                     (fun a b c -> Scalar.Func (Scalar.F_substring, [ a; b; c ]))
                     sub sub sub );
                 ( 1,
                   map
                     (fun args -> Scalar.Func (Scalar.F_coalesce, args))
                     (list_size (int_range 1 3) sub) );
               ]))

let gen_row =
  QCheck.Gen.(map Array.of_list (list_repeat arity gen_value))

let arb_case =
  QCheck.make
    ~print:(fun (e, row) ->
      Printf.sprintf "%s\nrow = [%s]" (Scalar.to_string e)
        (String.concat "; "
           (Array.to_list (Array.map Value.to_string row))))
    QCheck.Gen.(pair gen_expr gen_row)

(* --------------------------------------------------------------- *)
(* Compiled ≡ interpreted                                           *)
(* --------------------------------------------------------------- *)

let ctx = lazy (Exec.Exec_ctx.create (Catalog.create ()))

(* Both paths must agree on the value *and* on error behaviour: a type
   error under the interpreter must be the same type error under
   compilation. Arithmetic raises [Value.Type_error] directly; the
   evaluators' own checks raise [Eval.Eval_error]. *)
let outcome f : (Value.t, string) result =
  match f () with
  | v -> Ok v
  | exception Exec.Eval.Eval_error m -> Error ("eval: " ^ m)
  | exception Value.Type_error m -> Error ("type: " ^ m)

let prop_compiled_agrees =
  QCheck.Test.make ~count:1000
    ~name:"compiled closure = Eval interpreter (values and errors)" arb_case
    (fun (e, row) ->
      let ctx = Lazy.force ctx in
      let interpreted = outcome (fun () -> Exec.Eval.eval ctx row e) in
      let compiled =
        outcome (fun () -> (Exec.Expr_compile.compile ctx e) row)
      in
      interpreted = compiled)

let prop_pred_agrees =
  QCheck.Test.make ~count:500
    ~name:"compile_pred = Eval.truthy (three-valued logic)" arb_case
    (fun (e, row) ->
      let ctx = Lazy.force ctx in
      match outcome (fun () -> Exec.Eval.eval ctx row e) with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ ->
        Exec.Eval.truthy ctx row e
        = (Exec.Expr_compile.compile_pred ctx e) row)

let prop_oracle_mode =
  QCheck.Test.make ~count:200
    ~name:"interpret_exprs oracle mode matches compiled path" arb_case
    (fun (e, row) ->
      let ctx = Lazy.force ctx in
      let compiled = outcome (fun () -> (Exec.Expr_compile.compile ctx e) row) in
      ctx.Exec.Exec_ctx.interpret_exprs <- true;
      let oracle =
        outcome (fun () -> (Exec.Expr_compile.compile ctx e) row)
      in
      ctx.Exec.Exec_ctx.interpret_exprs <- false;
      compiled = oracle)

(* --------------------------------------------------------------- *)
(* LIKE fast paths                                                  *)
(* --------------------------------------------------------------- *)

let gen_like_string alphabet =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 0 6) (oneofl alphabet)))

let arb_like =
  QCheck.make
    ~print:(fun (p, s) -> Printf.sprintf "pattern=%S subject=%S" p s)
    QCheck.Gen.(
      pair
        (gen_like_string [ 'a'; 'b'; '%'; '_' ])
        (gen_like_string [ 'a'; 'b'; 'c' ]))

let prop_like_classifier =
  QCheck.Test.make ~count:2000
    ~name:"like_compiled = Value.like_match on random patterns" arb_like
    (fun (pattern, s) ->
      Exec.Expr_compile.like_compiled pattern s
      = Value.like_match ~pattern s)

(* --------------------------------------------------------------- *)
(* Deterministic 3VL corners                                        *)
(* --------------------------------------------------------------- *)

(* Kleene truth tables and NULL propagation, pinned explicitly so a
   shrinker-unfriendly regression still has a readable witness. *)
let test_3vl_corners () =
  let ctx = Lazy.force ctx in
  let t = Scalar.Const (Value.Bool true) in
  let f = Scalar.Const (Value.Bool false) in
  let nul = Scalar.Const Value.Null in
  let one = Scalar.Const (Value.Int 1) in
  let cases =
    [
      (Scalar.Binop (Sql.Ast.And, nul, f), Value.Bool false);
      (Scalar.Binop (Sql.Ast.And, nul, t), Value.Null);
      (Scalar.Binop (Sql.Ast.Or, nul, t), Value.Bool true);
      (Scalar.Binop (Sql.Ast.Or, nul, f), Value.Null);
      (Scalar.Not nul, Value.Null);
      (Scalar.Binop (Sql.Ast.Eq, nul, nul), Value.Null);
      (Scalar.Binop (Sql.Ast.Lt, one, nul), Value.Null);
      (Scalar.Is_null (nul, false), Value.Bool true);
      (Scalar.Is_null (nul, true), Value.Bool false);
      (Scalar.In_list (nul, [| Value.Int 1 |], false), Value.Null);
      (Scalar.In_list (one, [| Value.Null; Value.Int 1 |], false), Value.Bool true);
      (Scalar.Like (nul, Scalar.Const (Value.Str "%"), false), Value.Null);
      (Scalar.Func (Scalar.F_coalesce, [ nul; one ]), Value.Int 1);
      (* Int/Float unification must survive the pre-hashed IN table. *)
      ( Scalar.In_list (Scalar.Const (Value.Float 1.0), [| Value.Int 1 |], false),
        Value.Bool true );
    ]
  in
  List.iter
    (fun (e, expected) ->
      let got = (Exec.Expr_compile.compile ctx e) [||] in
      Alcotest.check Fixtures.value (Scalar.to_string e) expected got;
      Alcotest.check Fixtures.value
        ("interpreter agrees: " ^ Scalar.to_string e)
        expected
        (Exec.Eval.eval ctx [||] e))
    cases

(* --------------------------------------------------------------- *)
(* Constant folding = evaluation                                    *)
(* --------------------------------------------------------------- *)

(* Folding evaluates closed subtrees with the evaluator itself, so a
   folded expression means what the original means wherever the original
   evaluates at all (an erroring subtree stays unfolded). *)
let prop_fold_agrees =
  QCheck.Test.make ~count:2000 ~max_gen:20_000
    ~name:"Eval (fold_scalar e) = Eval e wherever Eval e succeeds" arb_case
    (fun (e, row) ->
      let ctx = Lazy.force ctx in
      match outcome (fun () -> Exec.Eval.eval ctx row e) with
      | Error _ -> QCheck.assume_fail ()
      | Ok v ->
        outcome (fun () -> Exec.Eval.eval ctx row (Optimizer.fold_scalar e))
        = Ok v)

let scalar = Alcotest.testable Scalar.pp Scalar.equal

(* The session functions read the execution, never the plan: a folded
   [now()] would be frozen into a cached statement shape. *)
let test_fold_pinned () =
  let c v = Scalar.Const v and str s = Scalar.Const (Value.Str s) in
  let now = Scalar.Func (Scalar.F_now, []) in
  let user = Scalar.Func (Scalar.F_user_id, []) in
  let sql = Scalar.Func (Scalar.F_sql_text, []) in
  List.iter
    (fun e ->
      Alcotest.check scalar ("stays: " ^ Scalar.to_string e) e
        (Optimizer.fold_scalar e))
    [
      now;
      user;
      sql;
      Scalar.Binop (Sql.Ast.Add, now, c (Value.Int 1));
      Scalar.Func (Scalar.F_upper, [ user ]);
      Scalar.Binop (Sql.Ast.Eq, sql, str "x");
      Scalar.Case ([ (Scalar.Binop (Sql.Ast.Gt, now, c (Value.Int 0)), str "later") ], None);
      Scalar.Binop (Sql.Ast.Div, c (Value.Int 1), c (Value.Int 0));
    ];
  let date s = Value.Date (Value.date_of_string s) in
  List.iter
    (fun (e, v) ->
      Alcotest.check scalar ("folds: " ^ Scalar.to_string e) (c v)
        (Optimizer.fold_scalar e))
    [
      ( Scalar.Func
          (Scalar.F_date_sub Sql.Ast.Days, [ c (date "1998-12-01"); c (Value.Int 90) ]),
        date "1998-09-02" );
      ( Scalar.Case
          ( [ (Scalar.Binop (Sql.Ast.Gt, c (Value.Int 2), c (Value.Int 1)), str "big") ],
            Some (str "small") ),
        Value.Str "big" );
      (Scalar.Func (Scalar.F_upper, [ str "a" ]), Value.Str "A");
      (Scalar.Like (c Value.Null, str "x", false), Value.Null);
      (Scalar.Binop (Sql.Ast.Concat, c (Value.Int 1), str "a"), Value.Str "1a");
    ]

(* --------------------------------------------------------------- *)
(* Columnar predicate kernels = evaluation                          *)
(* --------------------------------------------------------------- *)

(* A typed store: INT, FLOAT, VARCHAR, DATE and BOOL columns, NULL-heavy,
   with some slots erased after they were written (their strings stay in
   the dictionary). *)
let col_types = Datatype.[| T_int; T_float; T_string; T_date; T_bool |]

let gen_cell ty =
  QCheck.Gen.(
    let v =
      match ty with
      | Datatype.T_int -> map (fun i -> Value.Int i) (int_range (-3) 3)
      | Datatype.T_float ->
        map (fun i -> Value.Float (float_of_int i /. 2.0)) (int_range (-4) 4)
      | Datatype.T_string ->
        oneofl (List.map (fun s -> Value.Str s) [ ""; "a"; "ab"; "Alice"; "flu" ])
      | Datatype.T_date ->
        oneofl
          (List.map
             (fun s -> Value.Date (Value.date_of_string s))
             [ "1995-01-31"; "1995-06-17"; "1996-12-01" ])
      | Datatype.T_bool -> map (fun b -> Value.Bool b) bool
    in
    frequency [ (1, return Value.Null); (3, v) ])

let gen_store_rows =
  QCheck.Gen.(
    let row =
      map Array.of_list (flatten_l (List.map gen_cell (Array.to_list col_types)))
    in
    let erased = frequency [ (1, return true); (4, return false) ] in
    list_size (int_range 1 12) (pair row erased))

(* Predicates in the shapes the kernels accept, with constant sides drawn
   from every type (cross-type comparisons included) and sometimes left
   as closed subtrees for the kernel to fold. *)
let gen_col_pred =
  QCheck.Gen.(
    let col = int_range 0 (Array.length col_types - 1) in
    let const =
      frequency
        [
          (4, map (fun v -> Scalar.Const v) gen_value);
          ( 1,
            map2
              (fun a b -> Scalar.Binop (Sql.Ast.Add, Scalar.Const a, Scalar.Const b))
              gen_value gen_value );
        ]
    in
    let cmp = oneofl Sql.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    let leaf =
      frequency
        [
          ( 4,
            map3
              (fun op (i, k) flip ->
                if flip then Scalar.Binop (op, k, Scalar.Col i)
                else Scalar.Binop (op, Scalar.Col i, k))
              cmp (pair col const) bool );
          (1, map2 (fun i neg -> Scalar.Is_null (Scalar.Col i, neg)) col bool);
          ( 2,
            map3
              (fun i p neg -> Scalar.Like (Scalar.Col i, Scalar.Const p, neg))
              (frequency [ (3, return 2); (1, col) ])
              (frequency
                 [
                   (4, map (fun p -> Value.Str p) gen_like_pattern);
                   (1, return Value.Null);
                 ])
              bool );
          ( 2,
            map3
              (fun i vs neg -> Scalar.In_list (Scalar.Col i, Array.of_list vs, neg))
              col
              (list_size (int_range 0 4) gen_value)
              bool );
          (1, return (Scalar.Col 4));
          (1, map (fun v -> Scalar.Const v) (oneofl Value.[ Bool true; Bool false; Null ]));
          (1, map3 (fun op a b -> Scalar.Binop (op, a, b)) cmp const const);
        ]
    in
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun a -> Scalar.Not a) sub);
                 (2, map2 (fun a b -> Scalar.Binop (Sql.Ast.And, a, b)) sub sub);
                 (2, map2 (fun a b -> Scalar.Binop (Sql.Ast.Or, a, b)) sub sub);
               ]))

let arb_col_pred =
  QCheck.make
    ~print:(fun (rows, e) ->
      Printf.sprintf "%s\nrows = %s" (Scalar.to_string e)
        (String.concat " "
           (List.map
              (fun (r, erased) ->
                Printf.sprintf "[%s]%s"
                  (String.concat "; " (Array.to_list (Array.map Value.to_string r)))
                  (if erased then "(erased)" else ""))
              rows)))
    QCheck.Gen.(pair gen_store_rows gen_col_pred)

let prop_col_pred_agrees =
  QCheck.Test.make ~count:1000 ~max_gen:20_000
    ~name:"Col_pred kernel verdict = Eval on the materialized row" arb_col_pred
    (fun (rows, e) ->
      let ctx = Lazy.force ctx in
      let cs =
        Column_store.create
          (Schema.of_list
             (Array.to_list
                (Array.mapi (fun i ty -> Schema.column (Printf.sprintf "c%d" i) ty) col_types)))
      in
      List.iteri (fun slot (row, _) -> Column_store.write cs slot row) rows;
      List.iteri (fun slot (_, erased) -> if erased then Column_store.erase cs slot) rows;
      match Exec.Col_pred.compile ctx cs e with
      | None -> QCheck.assume_fail ()
      | Some kernel ->
        List.for_all
          (fun slot ->
            (not (Column_store.is_live cs slot))
            ||
            match outcome (fun () -> Exec.Eval.eval ctx (Column_store.read cs slot) e) with
            | Error _ -> true
            | Ok v ->
              let expected =
                match v with
                | Value.Bool true -> 1
                | Value.Bool false -> 0
                | Value.Null -> 2
                | _ -> -1
              in
              kernel slot = expected)
          (List.init (List.length rows) Fun.id))

let suite =
  Alcotest.test_case "three-valued-logic corners (compiled)" `Quick
    test_3vl_corners
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_compiled_agrees;
         prop_pred_agrees;
         prop_oracle_mode;
         prop_like_classifier;
       ]
  @ [
      Alcotest.test_case "session functions never fold; closed nodes do" `Quick
        test_fold_pinned;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_fold_agrees; prop_col_pred_agrees ]
