(** Unit tests for tables, the clustered PK index, change hooks and the
    catalog. *)

open Storage

let check = Alcotest.check

let people_schema =
  Schema.of_list
    [
      Schema.column "id" Datatype.T_int;
      Schema.column "name" Datatype.T_string;
      Schema.column "score" Datatype.T_float;
    ]

let mk_table () =
  Table.create ~key:0 ~storage:Fixtures.config.storage ~name:"people"
    people_schema

let row id name score =
  [| Value.Int id; Value.Str name; Value.Float score |]

let test_insert_and_scan () =
  let t = mk_table () in
  Table.insert t (row 1 "a" 1.0);
  Table.insert t (row 2 "b" 2.0);
  check Alcotest.int "cardinality" 2 (Table.cardinality t);
  check Fixtures.tuples "scan order" [ row 1 "a" 1.0; row 2 "b" 2.0 ]
    (Table.to_list t)

let test_pk_lookup () =
  let t = mk_table () in
  Table.insert t (row 1 "a" 1.0);
  Table.insert t (row 7 "g" 7.0);
  check (Alcotest.option Fixtures.tuple) "found" (Some (row 7 "g" 7.0))
    (Table.find_by_key t (Value.Int 7));
  check (Alcotest.option Fixtures.tuple) "missing" None
    (Table.find_by_key t (Value.Int 99))

let test_duplicate_key () =
  let t = mk_table () in
  Table.insert t (row 1 "a" 1.0);
  Alcotest.check_raises "dup"
    (Table.Duplicate_key "table people: duplicate key 1") (fun () ->
      Table.insert t (row 1 "b" 2.0))

let test_null_key_rejected () =
  let t = mk_table () in
  Alcotest.check_raises "null pk"
    (Table.Duplicate_key "table people: NULL primary key") (fun () ->
      Table.insert t [| Value.Null; Value.Str "x"; Value.Float 0.0 |])

let test_schema_check () =
  let t = mk_table () in
  Alcotest.check_raises "arity"
    (Table.Schema_mismatch "table people expects 3 columns, got 2") (fun () ->
      Table.insert t [| Value.Int 1; Value.Str "x" |]);
  (* Int is accepted for a FLOAT column (coerced). *)
  Table.insert t [| Value.Int 1; Value.Str "x"; Value.Int 5 |];
  check (Alcotest.option Fixtures.tuple) "coerced to float"
    (Some [| Value.Int 1; Value.Str "x"; Value.Float 5.0 |])
    (Table.find_by_key t (Value.Int 1))

let test_delete_where () =
  let t = mk_table () in
  List.iter (Table.insert t) [ row 1 "a" 1.0; row 2 "b" 2.0; row 3 "c" 3.0 ];
  let n = Table.delete_where t (fun r -> r.(0) = Value.Int 2) in
  check Alcotest.int "one deleted" 1 n;
  check Alcotest.int "cardinality" 2 (Table.cardinality t);
  check (Alcotest.option Fixtures.tuple) "pk index updated" None
    (Table.find_by_key t (Value.Int 2))

let test_update_where_key_change () =
  let t = mk_table () in
  List.iter (Table.insert t) [ row 1 "a" 1.0; row 2 "b" 2.0 ];
  let n =
    Table.update_where t
      (fun r -> r.(0) = Value.Int 2)
      (fun r -> [| Value.Int 20; r.(1); r.(2) |])
  in
  check Alcotest.int "one updated" 1 n;
  check (Alcotest.option Fixtures.tuple) "old key gone" None
    (Table.find_by_key t (Value.Int 2));
  check (Alcotest.option Fixtures.tuple) "new key present"
    (Some (row 20 "b" 2.0))
    (Table.find_by_key t (Value.Int 20))

let test_update_key_collision () =
  let t = mk_table () in
  List.iter (Table.insert t) [ row 1 "a" 1.0; row 2 "b" 2.0 ];
  Alcotest.check_raises "collision"
    (Table.Duplicate_key "table people: duplicate key 1 on update") (fun () ->
      ignore
        (Table.update_where t
           (fun r -> r.(0) = Value.Int 2)
           (fun r -> [| Value.Int 1; r.(1); r.(2) |])))

let test_hooks () =
  let t = mk_table () in
  let events = ref [] in
  Table.on_change t (fun c ->
      events :=
        (match c with
        | Table.Inserted _ -> "ins"
        | Table.Deleted _ -> "del"
        | Table.Updated _ -> "upd")
        :: !events);
  Table.insert t (row 1 "a" 1.0);
  ignore (Table.update_where t (fun _ -> true) (fun r -> r));
  ignore (Table.delete_where t (fun _ -> true));
  check Alcotest.(list string) "events" [ "ins"; "upd"; "del" ]
    (List.rev !events)

let test_cursor_hide () =
  let t = mk_table () in
  List.iter (Table.insert t) [ row 1 "a" 1.0; row 2 "b" 2.0; row 3 "c" 3.0 ];
  let c = Table.cursor ~hide:(0, Value.Int 2) t in
  let rec drain acc =
    match c () with None -> List.rev acc | Some r -> drain (r :: acc)
  in
  check Fixtures.tuples "hidden row skipped"
    [ row 1 "a" 1.0; row 3 "c" 3.0 ]
    (drain []);
  (* The table itself is untouched. *)
  check Alcotest.int "still 3 rows" 3 (Table.cardinality t)

let test_slots_reused_growth () =
  let t = mk_table () in
  for i = 1 to 100 do
    Table.insert t (row i "x" (float_of_int i))
  done;
  check Alcotest.int "100 rows" 100 (Table.cardinality t);
  ignore (Table.delete_where t (fun r -> r.(0) < Value.Int 51));
  check Alcotest.int "50 rows left" 50 (Table.cardinality t);
  check Alcotest.int "scan sees 50" 50 (List.length (Table.to_list t))

let test_catalog () =
  let c = Catalog.create () in
  Catalog.add c (mk_table ());
  check Alcotest.bool "mem case-insensitive" true (Catalog.mem c "PEOPLE");
  Alcotest.check_raises "double add" (Catalog.Table_exists "people")
    (fun () -> Catalog.add c (mk_table ()));
  check Alcotest.(list string) "names" [ "people" ] (Catalog.names c);
  Catalog.remove c "People";
  check Alcotest.bool "removed" false (Catalog.mem c "people");
  Alcotest.check_raises "unknown" (Catalog.Unknown_table "nope") (fun () ->
      ignore (Catalog.find c "nope"))

(* Heap tables share repeated cells between rows; the sharing must be
   invisible. Rows mix NULLs, [0.0] and [-0.0], two NaN payloads, ints
   stored into a FLOAT column (coerced), short repeated strings and long
   ones, and are enough to give the table its caches. After the inserts
   and again after an UPDATE of every row, each stored cell is
   bit-identical to the coerced input, and a columnar table given the same
   statements holds the same cells. *)
let mixed_schema =
  Schema.of_list
    [
      Schema.column "i" Datatype.T_int;
      Schema.column "f" Datatype.T_float;
      Schema.column "s" Datatype.T_string;
      Schema.column "d" Datatype.T_date;
      Schema.column "b" Datatype.T_bool;
    ]

let gen_mixed_row =
  let long = String.make 40 'x' in
  let nan2 = Int64.float_of_bits 0x7FF8000000000001L in
  QCheck.Gen.(
    map
      (fun (i, f, s, d, b) -> [| i; f; s; d; b |])
      (tup5
         (oneof [ return Value.Null; map (fun i -> Value.Int i) (int_range (-3) 3) ])
         (oneofl
            [
              Value.Null; Value.Float 0.0; Value.Float (-0.0); Value.Float nan;
              Value.Float nan2; Value.Float 1.5; Value.Int 0; Value.Int 2;
              Value.Float 2.0;
            ])
         (oneofl
            [ Value.Null; Value.Str ""; Value.Str "AIR"; Value.Str "MAIL";
              Value.Str long; Value.Str (long ^ "y") ])
         (oneof [ return Value.Null; map (fun d -> Value.Date d) (int_range 0 5) ])
         (oneofl [ Value.Null; Value.Bool true; Value.Bool false ])))

(* Same constructor and payload, floats by their bits. *)
let identical_cell (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let identical_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun r r' ->
         Array.length r = Array.length r' && Array.for_all2 identical_cell r r')
       a b

let prop_shared_cells_identical =
  QCheck.Test.make ~count:200 ~name:"shared heap cells are bit-identical"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 17 150) gen_mixed_row)
           (list_size (return 150) gen_mixed_row)))
    (fun (rows, replacements) ->
      let run storage =
        let t = Table.create ~storage ~name:"mixed" mixed_schema in
        List.iter (Table.insert t) rows;
        let inserted = Table.to_list t in
        let pending = ref replacements in
        ignore
          (Table.update_where t
             (fun _ -> true)
             (fun _ ->
               match !pending with
               | r :: rest ->
                 pending := rest;
                 r
               | [] -> assert false));
        (t, inserted, Table.to_list t)
      in
      let heap, heap_inserted, heap_updated = run Table.Heap in
      let _, col_inserted, col_updated = run Table.Columnar in
      let coerced l = List.map (Table.coerce_row heap) l in
      let updated_input =
        List.filteri (fun i _ -> i < List.length rows) replacements
      in
      identical_rows heap_inserted (coerced rows)
      && identical_rows heap_updated (coerced updated_input)
      && identical_rows heap_inserted col_inserted
      && identical_rows heap_updated col_updated)

let suite =
  [
    Alcotest.test_case "insert and scan" `Quick test_insert_and_scan;
    Alcotest.test_case "clustered PK lookup" `Quick test_pk_lookup;
    Alcotest.test_case "duplicate key rejected" `Quick test_duplicate_key;
    Alcotest.test_case "NULL key rejected" `Quick test_null_key_rejected;
    Alcotest.test_case "schema check and coercion" `Quick test_schema_check;
    Alcotest.test_case "delete_where maintains index" `Quick test_delete_where;
    Alcotest.test_case "update_where can move keys" `Quick
      test_update_where_key_change;
    Alcotest.test_case "update key collision" `Quick test_update_key_collision;
    Alcotest.test_case "change hooks" `Quick test_hooks;
    Alcotest.test_case "cursor hide (virtual delete)" `Quick test_cursor_hide;
    Alcotest.test_case "growth and holes" `Quick test_slots_reused_growth;
    Alcotest.test_case "catalog" `Quick test_catalog;
    QCheck_alcotest.to_alcotest prop_shared_cells_identical;
  ]
