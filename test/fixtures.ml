(** Shared test fixtures. *)

open Storage

let v_int i = Value.Int i
let v_str s = Value.Str s

(** The configuration every test database starts from: {!Db.Config.default}
    with each axis taken from its environment variable when set —
    [EXEC_MODE] (row|compiled), [STORAGE] (heap|columnar), [ELISION]
    (off|certified, or 0|1) and [VERIFY] (off|warn|strict) — parsed by
    that axis's {!Db.Config} parser. The library reads no environment: a
    whole-suite run in another configuration goes through here. *)
let config =
  let axis name of_string default =
    match Sys.getenv_opt name with
    | None | Some "" -> default
    | Some s -> (
      match of_string s with
      | Some v -> v
      | None -> failwith (Printf.sprintf "%s=%S is not a valid value" name s))
  in
  let d = Db.Config.default in
  {
    Db.Config.exec = axis "EXEC_MODE" Db.Config.exec_of_string d.exec;
    storage = axis "STORAGE" Db.Config.storage_of_string d.storage;
    elision = axis "ELISION" Db.Config.elision_of_string d.elision;
    verify = axis "VERIFY" Db.Config.verify_of_string d.verify;
  }

(** Every configuration: 2 engines × 2 storages × 2 elision modes × 3
    verify modes. *)
let all_configs =
  let open Db.Config in
  List.concat_map
    (fun exec ->
      List.concat_map
        (fun storage ->
          List.concat_map
            (fun elision ->
              List.map
                (fun verify -> { exec; storage; elision; verify })
                [ Off; Warn; Strict ])
            [ Elide_off; Elide_certified ])
        [ Table.Heap; Table.Columnar ])
    [ `Row; `Compiled ]

let string_of_config (c : Db.Config.t) =
  Printf.sprintf "exec=%s storage=%s elision=%s verify=%s"
    (Db.Config.exec_to_string c.exec)
    (Db.Config.storage_to_string c.storage)
    (Db.Config.elision_to_string c.elision)
    (Db.Config.verify_to_string c.verify)

(** A fresh database in [config] (default: the runner's {!config}). *)
let create ?(config = config) () = Db.Database.create ~config ()

(** [c] with plan verification raised from [Off] to [Warn]; [Warn] and
    [Strict] are kept. Fixture databases use it so that a regression that
    corrupts placement shows up as alarm noise even in tests that don't
    assert on plans, while a [VERIFY=strict] run stays strict. *)
let at_least_warn (c : Db.Config.t) =
  if c.verify = Db.Config.Off then { c with verify = Db.Config.Warn } else c

(** The paper's healthcare database (§I-III examples): Alice and Dave have
    cancer, Bob and Carol have flu, Eve has diabetes. *)
let healthcare () =
  let db = create ~config:(at_least_warn config) () in
  let e sql = ignore (Db.Database.exec db sql) in
  e
    "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age \
     INT, zip INT)";
  e "CREATE TABLE disease (patientid INT, disease VARCHAR)";
  e "CREATE TABLE departments (patientid INT, deptid INT)";
  e
    "INSERT INTO patients VALUES (1,'Alice',34,48109),(2,'Bob',22,48109),\
     (3,'Carol',67,98052),(4,'Dave',45,98052),(5,'Eve',29,10001)";
  e
    "INSERT INTO disease VALUES (1,'cancer'),(2,'flu'),(3,'flu'),\
     (4,'cancer'),(5,'diabetes')";
  e "INSERT INTO departments VALUES (1,10),(2,20),(3,20),(4,10),(5,30)";
  db

(** Healthcare DB with the Alice audit expression declared. *)
let healthcare_with_alice () =
  let db = healthcare () in
  ignore
    (Db.Database.exec db
       "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE \
        name = 'Alice' FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  db

(** Audit expression covering every patient. *)
let audit_all_sql =
  "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients FOR \
   SENSITIVE TABLE patients, PARTITION BY patientid"

(* --------------------------------------------------------------- *)
(* Alcotest testables                                               *)
(* --------------------------------------------------------------- *)

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let tuple : Tuple.t Alcotest.testable =
  Alcotest.testable Tuple.pp Tuple.equal

let values = Alcotest.list value
let tuples = Alcotest.list tuple

(** Run a SELECT and get rows, sorted for order-insensitive comparison. *)
let rows_sorted db sql =
  List.sort Tuple.compare (Db.Database.query db sql)

let ids_of_values vs = List.map (fun v -> Value.to_string v) vs

(** Accessed IDs for [audit] after running [sql] under [heuristic]. *)
let audit_ids db ~audit ~heuristic sql =
  let plan = Db.Database.prepare_sql db ~audits:[ audit ] ~heuristic sql in
  ignore (Db.Database.run_plan db plan);
  Exec.Exec_ctx.accessed_list (Db.Database.context db) ~audit_name:audit

(** Offline-exact accessed IDs for [audit] on [sql]. *)
let exact_ids db ~audit sql =
  Db.Database.exact_accessed db ~audit (Db.Database.plan_sql db ~audits:[] sql)

(** Lineage (provenance-rewrite) accessed IDs for [audit] on [sql]. *)
let lineage_ids db ~audit sql =
  Db.Database.lineage db ~audit (Db.Database.plan_sql db ~audits:[] sql)

(** [contains hay needle]: [needle] occurs in [hay]. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let subset a b = List.for_all (fun x -> List.exists (Value.equal x) b) a
