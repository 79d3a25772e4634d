(** Columnar storage: QCheck round-trip properties against the boxed
    representation, and corner tests for the representation-independent
    table contract (virtual delete, change hooks, fault fallback).

    The encode/decode pair under test is the whole storage seam: a tuple
    written through {!Storage.Column_store.write} shreds into typed
    unboxed vectors + null bitmaps, and every read path (single-slot,
    bulk, projected) must reconstruct exactly the boxed tuple the heap
    store would have kept. *)

open Storage
module F = Engine_core.Faultkit
module E = Engine_core.Engine_error

(* --------------------------------------------------------------- *)
(* Dictionary round trip                                            *)
(* --------------------------------------------------------------- *)

(* Small alphabet so duplicates are common; "" is always a candidate. *)
let gen_string =
  QCheck.Gen.(
    oneof
      [
        return "";
        oneofl [ "a"; "b"; "ab"; "ba"; "long-ish string value" ];
        string_size ~gen:(map Char.chr (int_range 97 99)) (int_bound 4);
      ])

let prop_dict_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Dict: decode . encode = id"
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) gen_string))
    (fun ss ->
      let d = Column_store.Dict.create () in
      let codes = List.map (Column_store.Dict.encode d) ss in
      List.for_all2 (fun s c -> Column_store.Dict.decode d c = s) ss codes
      && List.for_all2
           (fun s c -> Column_store.Dict.find d s = Some c)
           ss codes
      && Column_store.Dict.size d
         = List.length (List.sort_uniq compare ss))

(* --------------------------------------------------------------- *)
(* Column store vs the boxed oracle                                 *)
(* --------------------------------------------------------------- *)

let wide_schema =
  Schema.of_list
    [
      Schema.column "i" Datatype.T_int;
      Schema.column "f" Datatype.T_float;
      Schema.column "s" Datatype.T_string;
      Schema.column "b" Datatype.T_bool;
      Schema.column "d" Datatype.T_date;
    ]

(* Exact-typed cells (writes are type-checked), each nullable so the
   null bitmaps are exercised alongside the data vectors. *)
let gen_row =
  QCheck.Gen.(
    let nullable g = frequency [ (1, return Value.Null); (3, g) ] in
    let* i = nullable (map (fun x -> Value.Int x) (int_range (-50) 50)) in
    let* f =
      nullable
        (map (fun x -> Value.Float (float_of_int x /. 4.0)) (int_range (-40) 40))
    in
    let* s = nullable (map (fun x -> Value.Str x) gen_string) in
    let* b = nullable (map (fun x -> Value.Bool x) bool) in
    let* d = nullable (map (fun x -> Value.Date x) (int_range 0 20000)) in
    return [| i; f; s; b; d |])

let gen_rows_and_holes =
  QCheck.Gen.(
    let* rows = list_size (int_bound 40) gen_row in
    let* holes = list_repeat (List.length rows) bool in
    return (Array.of_list rows, Array.of_list holes))

let prop_store_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"Column_store: read paths = boxed oracle (nulls, holes)"
    (QCheck.make gen_rows_and_holes)
    (fun (rows, holes) ->
      let cs = Column_store.create wide_schema in
      Array.iteri (fun slot row -> Column_store.write cs slot row) rows;
      Array.iteri (fun slot h -> if h then Column_store.erase cs slot) holes;
      let n = Array.length rows in
      let live =
        List.filter (fun s -> not holes.(s)) (List.init n (fun s -> s))
      in
      let sel = Array.of_list live in
      let k = Array.length sel in
      let bulk = Column_store.read_many cs sel k in
      let proj_cols = [| 4; 0; 2 |] in
      let proj = Column_store.read_proj_many cs proj_cols sel k in
      List.for_all (fun s -> Column_store.is_live cs s = not holes.(s))
        (List.init n (fun s -> s))
      && List.for_all (fun s -> Column_store.read cs s = rows.(s)) live
      && List.for_all
           (fun s ->
             Column_store.read_proj cs proj_cols s
             = Array.map (fun c -> rows.(s).(c)) proj_cols)
           live
      && Array.for_all2 (fun s r -> r = rows.(s)) sel bulk
      && Array.for_all2
           (fun s r -> r = Array.map (fun c -> rows.(s).(c)) proj_cols)
           sel proj)

(* --------------------------------------------------------------- *)
(* Table-contract corners: heap is the oracle                       *)
(* --------------------------------------------------------------- *)

let people_schema =
  Schema.of_list
    [
      Schema.column "id" Datatype.T_int;
      Schema.column "name" Datatype.T_string;
      Schema.column "zip" Datatype.T_int;
    ]

let row id name zip = [| Value.Int id; Value.Str name; Value.Int zip |]

let mk_people storage =
  let t = Table.create ~key:0 ~storage ~name:"people" people_schema in
  List.iter (Table.insert t)
    [ row 1 "a" 1; row 2 "b" 2; row 3 "c" 1; row 4 "d" 2; row 5 "e" 1 ];
  t

let collect ?hide t = List.rev (Table.fold ?hide t (fun acc r -> r :: acc) [])

(* [?hide] on a non-unique column virtually deletes the whole partition
   (the paper's §IV-B audit semantics) — identically in both stores. *)
let test_hide_partition () =
  let heap = mk_people Table.Heap and col = mk_people Table.Columnar in
  let hide = (2, Value.Int 1) in
  Alcotest.(check Fixtures.tuples)
    "hidden partition parity" (collect ~hide heap) (collect ~hide col);
  Alcotest.(check Fixtures.tuples)
    "partition rows 1,3,5 hidden"
    [ row 2 "b" 2; row 4 "d" 2 ]
    (collect ~hide col);
  Alcotest.(check Fixtures.tuples)
    "unhidden scan intact" (collect heap) (collect col)

(* delete_where/update_where must fire the same change-hook stream (same
   payloads, same order) and leave the same rows in both stores. *)
let test_mutation_hook_parity () =
  let run storage =
    let t = mk_people storage in
    let log = ref [] in
    Table.on_change t (fun c -> log := c :: !log);
    let updated =
      Table.update_where t
        (fun r -> r.(2) = Value.Int 1)
        (fun r -> [| r.(0); Value.Str "x"; Value.Int 9 |])
    in
    let deleted = Table.delete_where t (fun r -> r.(0) = Value.Int 2) in
    Table.insert t (row 6 "f" 3);
    (updated, deleted, List.rev !log, collect t)
  in
  let hu, hd, hlog, hrows = run Table.Heap in
  let cu, cd, clog, crows = run Table.Columnar in
  Alcotest.(check int) "updated count" hu cu;
  Alcotest.(check int) "deleted count" hd cd;
  Alcotest.(check Fixtures.tuples) "rows after mutations" hrows crows;
  Alcotest.(check int) "hook count" (List.length hlog) (List.length clog);
  Alcotest.(check bool) "hook payloads and order" true (hlog = clog)

(* Armed faults must reach the operator tree under columnar compiled
   execution: every kernel bypasses the per-node wrappers that carry the
   fault sites, so arming Faultkit has to force the compiled engine's
   generic per-node pipeline. *)
let test_fault_forces_generic_path () =
  let db = Fixtures.create () in
  Db.Database.set_storage_mode db Table.Columnar;
  Db.Database.set_exec_mode db `Compiled;
  let e sql = ignore (Db.Database.exec db sql) in
  e "CREATE TABLE t (a INT PRIMARY KEY, b INT)";
  e "CREATE TABLE u (c INT PRIMARY KEY, a INT)";
  for i = 1 to 20 do
    e (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 5));
    e (Printf.sprintf "INSERT INTO u VALUES (%d, %d)" i ((i mod 10) + 1))
  done;
  let expect_fault label sql =
    match Db.Database.exec db sql with
    | _ -> Alcotest.fail (label ^ ": armed fault must fire")
    | exception E.Error (E.Fault _) -> ()
  in
  F.arm (Db.Database.faults db) [ F.Op_next { op = "scan"; at = 2 } ];
  expect_fault "fused scan" "SELECT * FROM t";
  F.arm (Db.Database.faults db) [ F.Op_next { op = "join"; at = 1 } ];
  expect_fault "fused join" "SELECT t.b, u.c FROM t, u WHERE t.a = u.a";
  F.arm (Db.Database.faults db) [];
  match Db.Database.exec db "SELECT t.b, u.c FROM t, u WHERE t.a = u.a" with
  | Db.Database.Rows { rows; _ } ->
    Alcotest.(check int) "clean join after disarm" 20 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dict_roundtrip; prop_store_roundtrip ]
  @ [
      Alcotest.test_case "?hide hides the whole partition (both stores)"
        `Quick test_hide_partition;
      Alcotest.test_case "delete/update hook parity (heap = columnar)" `Quick
        test_mutation_hook_parity;
      Alcotest.test_case "armed faults force the generic path (compiled)" `Quick
        test_fault_forces_generic_path;
    ]
