(** N-engine differential testing: every execution engine against the
    row engine, across both storage engines.

    The row executor over heap tables is the semantic oracle: for every
    query we run the same physical plan under the full
    row/compiled × heap/columnar matrix and require {e identical} result
    rows (including emission order — both engines share hash-table
    insertion and probe order), identical ACCESSED sets, and identical
    trigger notifications, under all three placement heuristics. The
    columnar runs exercise the compiled engine's slot-level kernels
    (filtered scans, fused aggregation, late-materializing joins) and
    their fallbacks.

    Coverage comes from five directions:
    - a seeded random query generator (select/filter/join/agg/order-by/
      top-k/distinct/exists/union shapes over random patients+visits
      databases, with and without a secondary index) — ≥200 cases;
    - the full TPC-H corpus ({!Tpch.Queries.all}, 20 queries) at a tiny
      scale factor;
    - a notification corpus driven through the full [exec] path (trigger
      firings and NOTIFY output must be byte-equal per engine);
    - budget-parity regressions: the row and memory budgets must cancel
      at the same row counts in every mode, with the same partial
      ACCESSED state (the push engine charges per row before each push);
    - a kernel corpus: each compiled kernel, [LIMIT], correlated
      [Apply] and index-NL join against the row engine in every session
      state that must make a kernel fall back or a fault fire, comparing
      rows or the error text, the fired faults, WAL evidence, ACCESSED
      and the scan/materialization counters. *)

module E = Engine_core.Engine_error

let heuristics =
  Audit_core.Placement.[ ("leaf", Leaf); ("hcn", Hcn); ("highest", Highest) ]

(** Every engine under differential test; the first is the oracle. A new
    engine only needs a row here (and in the engine dispatch of {!Db.Database}) to be
    covered by the whole corpus. *)
let modes = [ ("row", `Row); ("compiled", `Compiled) ]

(* --------------------------------------------------------------- *)
(* Core comparison: rows + ACCESSED under both engines              *)
(* --------------------------------------------------------------- *)

(** Run [sql] instrumented for [audit] under [heuristic] in the given
    mode; returns (rows, accessed). *)
let run_mode db ~audit ~heuristic mode sql =
  Db.Database.set_exec_mode db mode;
  let plan = Db.Database.prepare_sql db ~audits:[ audit ] ~heuristic sql in
  let rows = Db.Database.run_plan db plan in
  let accessed =
    Exec.Exec_ctx.accessed_list (Db.Database.context db) ~audit_name:audit
  in
  (rows, accessed)

(** [check_query_dbs dbs ...] — [dbs] holds the same data under different
    storage engines; the first db's row-engine run is the oracle for
    every other (storage, engine) combination. *)
let check_query_dbs dbs ~audit ~ctx_label sql =
  List.iter
    (fun (hname, h) ->
      let oracle_storage, oracle_db = List.hd dbs in
      let oracle_rows, oracle_acc =
        run_mode oracle_db ~audit ~heuristic:h `Row sql
      in
      List.iter
        (fun (sname, db) ->
          List.iter
            (fun (mname, mode) ->
              if not (sname == oracle_storage && mode = `Row) then begin
                let label =
                  Printf.sprintf "%s [%s %s/%s] %s" ctx_label hname sname
                    mname sql
                in
                let rows, acc = run_mode db ~audit ~heuristic:h mode sql in
                Alcotest.(check (list Fixtures.tuple))
                  ("rows: " ^ label) oracle_rows rows;
                Alcotest.(check Fixtures.values)
                  ("accessed: " ^ label) oracle_acc acc
              end)
            modes)
        dbs)
    heuristics

(* --------------------------------------------------------------- *)
(* Seeded random databases and queries (plain Random.State, so each *)
(* case is reproducible from its seed alone)                        *)
(* --------------------------------------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* A harness db: the given storage, the row engine (each check switches
   engines itself), verification at least Warn. *)
let empty_db storage =
  Fixtures.create
    ~config:{ (Fixtures.at_least_warn Fixtures.config) with storage; exec = `Row }
    ()

(* The dataset is generated once as a statement list and replayed into
   one db per storage engine, so the matrix compares identical data. *)
let mk_db storage stmts =
  let db = empty_db storage in
  List.iter (fun sql -> ignore (Db.Database.exec db sql)) stmts;
  db

let matrix_dbs stmts =
  [
    ("heap", mk_db Storage.Table.Heap stmts);
    ("columnar", mk_db Storage.Table.Columnar stmts);
  ]

let build_stmts st =
  let stmts = ref [] in
  let e sql = stmts := sql :: !stmts in
  e "CREATE TABLE patients (pid INT PRIMARY KEY, age INT, zip INT)";
  e "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, cost INT)";
  let npat = Random.State.int st 13 in
  for i = 1 to npat do
    e
      (Printf.sprintf "INSERT INTO patients VALUES (%d,%d,%d)" i
         (Random.State.int st 10) (Random.State.int st 3))
  done;
  let nvis = Random.State.int st 19 in
  for i = 1 to nvis do
    e
      (Printf.sprintf "INSERT INTO visits VALUES (%d,%d,%d)" i
         (1 + Random.State.int st (max 1 (npat + 2)))
         (Random.State.int st 10))
  done;
  if Random.State.bool st then e "CREATE INDEX visits_pid ON visits (pid)";
  e
    "CREATE AUDIT EXPRESSION audit_pat AS SELECT * FROM patients FOR \
     SENSITIVE TABLE patients, PARTITION BY pid";
  List.rev !stmts

let gen_query st =
  let k1 = Random.State.int st 10 in
  let k2 = Random.State.int st 10 in
  let op1 = pick st [ ">"; "<"; "=" ] in
  let op2 = pick st [ ">"; "<="; "<>" ] in
  let desc = if Random.State.bool st then "DESC" else "ASC" in
  let topn = 1 + Random.State.int st 4 in
  let join = Random.State.bool st in
  let base_from, base_where =
    if join then
      ( "patients p, visits v",
        Printf.sprintf "p.pid = v.pid AND v.cost %s %d AND " op2 k2 )
    else ("patients p", "")
  in
  let where c = base_where ^ c in
  match Random.State.int st 9 with
  | 0 | 1 ->
    Printf.sprintf "SELECT p.pid, p.age FROM %s WHERE %s" base_from
      (where (Printf.sprintf "p.age %s %d" op1 k1))
  | 2 ->
    Printf.sprintf
      "SELECT p.zip, count(*), sum(p.age) FROM %s WHERE %s GROUP BY p.zip \
       HAVING count(*) > 1"
      base_from
      (where (Printf.sprintf "p.age %s %d" op1 k1))
  | 3 ->
    Printf.sprintf "SELECT TOP %d p.pid FROM %s WHERE %s ORDER BY p.age %s, p.pid"
      topn base_from
      (where (Printf.sprintf "p.zip <= %d" (k1 mod 3)))
      desc
  | 4 ->
    Printf.sprintf "SELECT DISTINCT p.zip FROM %s WHERE %s" base_from
      (where (Printf.sprintf "p.age %s %d" op1 k1))
  | 5 ->
    Printf.sprintf
      "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM visits v \
       WHERE v.pid = p.pid AND v.cost %s %d) AND p.age %s %d"
      op2 k2 op1 k1
  | 6 ->
    let kw = if Random.State.bool st then "UNION ALL" else "UNION" in
    Printf.sprintf
      "SELECT p.pid, p.zip FROM patients p WHERE p.age %s %d %s SELECT \
       p.pid, p.age FROM patients p WHERE p.zip <= %d"
      op1 k1 kw (k2 mod 3)
  | 7 ->
    Printf.sprintf "SELECT p.pid, p.age FROM %s WHERE %s ORDER BY p.age %s, p.pid"
      base_from
      (where (Printf.sprintf "p.age %s %d" op1 k1))
      desc
  | _ ->
    Printf.sprintf "SELECT count(*), sum(p.age), min(p.zip) FROM %s WHERE %s"
      base_from
      (where (Printf.sprintf "p.age %s %d" op1 k1))

let n_seeded_cases = 220

let test_seeded_corpus () =
  for seed = 0 to n_seeded_cases - 1 do
    let st = Random.State.make [| 0xba7c4; seed |] in
    let stmts = build_stmts st in
    let sql = gen_query st in
    check_query_dbs (matrix_dbs stmts) ~audit:"audit_pat"
      ~ctx_label:(Printf.sprintf "seed %d" seed)
      sql
  done

(* --------------------------------------------------------------- *)
(* TPC-H corpus                                                     *)
(* --------------------------------------------------------------- *)

let tpch_db_with storage =
  let db = empty_db storage in
  ignore (Tpch.Dbgen.load db ~sf:0.002);
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  db

let tpch_dbs =
  lazy
    [
      ("heap", tpch_db_with Storage.Table.Heap);
      ("columnar", tpch_db_with Storage.Table.Columnar);
    ]

let test_tpch_corpus () =
  let dbs = Lazy.force tpch_dbs in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check_query_dbs dbs ~audit:"audit_customer" ~ctx_label:q.Tpch.Queries.id
        q.Tpch.Queries.sql)
    Tpch.Queries.all

(* --------------------------------------------------------------- *)
(* Notification parity: the full exec path (instrumentation, audit  *)
(* evidence, trigger cascade, NOTIFY) must be byte-equal per engine *)
(* --------------------------------------------------------------- *)

let notif_queries =
  [
    "SELECT p.pid, p.age FROM patients p WHERE p.age > 3";
    "SELECT p.pid FROM patients p, visits v WHERE p.pid = v.pid AND v.cost \
     <= 5";
    "SELECT p.zip, count(*) FROM patients p GROUP BY p.zip";
    "SELECT DISTINCT p.zip FROM patients p WHERE p.age < 8 ORDER BY p.zip";
    "SELECT count(*) FROM visits v WHERE v.cost > 9";
    "SELECT p.pid FROM patients p WHERE EXISTS (SELECT 1 FROM visits v \
     WHERE v.pid = p.pid)";
    "SELECT p.pid, p.zip FROM patients p WHERE p.age > 6 UNION SELECT \
     p.pid, p.age FROM patients p WHERE p.zip <= 1";
  ]

(** Replay the query list through {!Db.Database.exec} (instrumentation on,
    triggers firing) and collect per-query rows plus the session's NOTIFY
    stream. *)
let exec_outcome db mode =
  Db.Database.set_exec_mode db mode;
  Db.Database.clear_notifications db;
  let rows =
    List.map
      (fun sql ->
        match Db.Database.exec db sql with
        | Db.Database.Rows { rows; _ } -> rows
        | _ -> [])
      notif_queries
  in
  (rows, Db.Database.notifications db)

let test_notification_parity () =
  let st = Random.State.make [| 0xba7c5 |] in
  let stmts =
    build_stmts st
    @ [
        (* Rows beyond the random generator's key range, so the corpus is
           never vacuously empty and the trigger always has prey. *)
        "INSERT INTO patients VALUES (101, 7, 1)";
        "INSERT INTO patients VALUES (102, 4, 0)";
        "INSERT INTO patients VALUES (103, 9, 2)";
        "INSERT INTO visits VALUES (101, 101, 3)";
        "INSERT INTO visits VALUES (102, 103, 8)";
        "CREATE TRIGGER watch_pat ON ACCESS TO audit_pat AS NOTIFY 'pat \
         accessed'";
      ]
  in
  let dbs = matrix_dbs stmts in
  let _, oracle_db = List.hd dbs in
  let oracle_rows, oracle_notifs = exec_outcome oracle_db `Row in
  Alcotest.(check bool) "trigger fired at least once" true (oracle_notifs <> []);
  List.iter
    (fun (sname, db) ->
      List.iter
        (fun (mname, mode) ->
          let label = Printf.sprintf "[%s %s]" sname mname in
          let rows, notifs = exec_outcome db mode in
          List.iteri
            (fun i q ->
              Alcotest.(check (list Fixtures.tuple))
                (Printf.sprintf "rows %s %s" label q)
                (List.nth oracle_rows i) (List.nth rows i))
            notif_queries;
          Alcotest.(check (list string))
            ("notifications " ^ label) oracle_notifs notifs)
        modes)
    dbs

(* --------------------------------------------------------------- *)
(* Evidence parity: ACCESSED is harvested from the statement's log  *)
(* --------------------------------------------------------------- *)

(* Two audits over [patients]: audit_old is single-table (maintained
   incrementally, so DELETE/UPDATE drop IDs from its probe table), and
   audit_consent joins [consent] (a change there recomputes its probe
   table, resetting every mark). [cascade] reads more sensitive rows from
   a trigger body; [revoke] takes marked IDs out of both views in the
   middle of the statement that marked them. *)
let evidence_stmts ~ages ~zips ~oks =
  let n = Array.length ages in
  [
    "CREATE TABLE patients (pid INT PRIMARY KEY, age INT, zip INT)";
    "CREATE TABLE consent (pid INT PRIMARY KEY, ok INT)";
    "CREATE TABLE trail (pid INT)";
  ]
  @ List.init n (fun i ->
        Printf.sprintf "INSERT INTO patients VALUES (%d,%d,%d)" (i + 1)
          ages.(i) zips.(i))
  @ List.init n (fun i ->
        Printf.sprintf "INSERT INTO consent VALUES (%d,%d)" (i + 1) oks.(i))
  @ [
      "CREATE AUDIT EXPRESSION audit_old AS SELECT * FROM patients WHERE \
       age >= 5 FOR SENSITIVE TABLE patients, PARTITION BY pid";
      "CREATE AUDIT EXPRESSION audit_consent AS SELECT p.* FROM patients p, \
       consent c WHERE p.pid = c.pid AND c.ok = 1 FOR SENSITIVE TABLE \
       patients, PARTITION BY pid";
      "CREATE TRIGGER cascade ON ACCESS TO audit_old AS INSERT INTO trail \
       SELECT pid FROM patients WHERE zip = 2";
      "CREATE TRIGGER revoke ON ACCESS TO audit_consent AS BEGIN UPDATE \
       consent SET ok = 0 WHERE pid <= 6; DELETE FROM patients WHERE pid = \
       3; INSERT INTO trail SELECT pid FROM patients WHERE pid = 12; END";
    ]

let evidence_queries =
  [
    "SELECT pid, age FROM patients WHERE zip = 1";
    "SELECT p.pid FROM patients p, consent c WHERE p.pid = c.pid AND c.ok = 1";
    "UPDATE patients SET age = 1 WHERE pid = 7";
    "DELETE FROM patients WHERE pid = 8";
    "SELECT count(*) FROM patients WHERE age > 2";
  ]

let evidence_audits = [ "audit_old"; "audit_consent" ]

(* What the pre-log harvest reported for the statement that just ran: the
   probe-table entries whose mark carries the statement's generation. *)
let marked_now db name =
  let gen = (Db.Database.context db).Exec.Exec_ctx.generation in
  Storage.Value.Hashtbl_v.fold
    (fun id mark acc -> if !mark = gen then id :: acc else acc)
    (Db.Database.audit_view db name).Audit_core.Sensitive_view.ids []
  |> List.sort Storage.Value.compare_total

(** Replay [evidence_queries] through [exec] with deferred evidence; per
    statement, the rendered evidence records plus, per audit, the
    harvested ACCESSED and what the mark-table scan would have said. *)
let evidence_outcome db mode =
  Db.Database.set_exec_mode db mode;
  Db.Database.set_deferred_evidence db true;
  List.map
    (fun sql ->
      let status =
        match Db.Database.exec db sql with
        | _ -> "ok"
        | exception e -> Printexc.to_string e
      in
      let records =
        List.map Audit_log.Wal.record_to_string
          (Db.Database.take_pending_evidence db)
      in
      let ctx = Db.Database.context db in
      let per_audit =
        List.map
          (fun a ->
            (a, Exec.Exec_ctx.accessed_list ctx ~audit_name:a, marked_now db a))
          evidence_audits
      in
      (status :: records, per_audit))
    evidence_queries

(** Every engine x storage against row/heap: byte-equal evidence, and no
    ID the mark-table scan would have reported missing from ACCESSED.
    Returns the oracle's per-statement outcome. *)
let check_evidence_matrix ~label stmts =
  let oracle = evidence_outcome (mk_db Storage.Table.Heap stmts) `Row in
  List.iter
    (fun (sname, storage) ->
      List.iter
        (fun (mname, mode) ->
          let got = evidence_outcome (mk_db storage stmts) mode in
          List.iteri
            (fun i ((records, per_audit), (oracle_records, _)) ->
              let q = List.nth evidence_queries i in
              let l = Printf.sprintf "%s [%s %s] %s" label sname mname q in
              Alcotest.(check (list string))
                ("evidence " ^ l) oracle_records records;
              List.iter
                (fun (a, accessed, scanned) ->
                  List.iter
                    (fun id ->
                      if not (List.exists (Storage.Value.equal id) accessed)
                      then
                        Alcotest.failf "%s: %s lost %s reported by the scan" l
                          a (Storage.Value.to_string id))
                    scanned)
                per_audit)
            (List.combine got oracle))
        modes)
    [ ("heap", Storage.Table.Heap); ("columnar", Storage.Table.Columnar) ];
  oracle

let test_evidence_parity () =
  let ages = Array.init 12 (fun i -> (i + 1) * 7 mod 10) in
  let zips = Array.init 12 (fun i -> (i + 1) mod 3) in
  let oks = Array.init 12 (fun i -> (i + 1) mod 2) in
  let oracle = check_evidence_matrix ~label:"fixed" (evidence_stmts ~ages ~zips ~oks) in
  let per_audit i a =
    let _, per = List.nth oracle i in
    let _, accessed, scanned = List.find (fun (a', _, _) -> a' = a) per in
    (accessed, scanned)
  in
  let ints = List.map (fun i -> Storage.Value.Int i) in
  (* zip = 1 reads 1, 4, 7, 10; the cascade's zip = 2 read adds 5, 8, 11
     (age >= 5), which only the trigger body touched. *)
  Alcotest.(check Fixtures.values)
    "audit_old evidence includes the cascade's reads" (ints [ 1; 4; 5; 7; 8; 11 ])
    (fst (per_audit 0 "audit_old"));
  (* revoke recomputes audit_consent's probe table mid-statement, so the
     marks of 1 and 7 (read by the query) and 5 and 11 (read by the
     cascade) are gone; the log still has them. *)
  Alcotest.(check Fixtures.values)
    "audit_consent keeps IDs whose marks were reset" (ints [ 1; 5; 7; 11 ])
    (fst (per_audit 0 "audit_consent"));
  Alcotest.(check bool) "the scan would have lost some of them" true
    (List.length (snd (per_audit 0 "audit_consent")) < 4);
  (* The DML read-accesses (§II-B): UPDATE and DELETE take 7 and 8 out of
     audit_old's view, and still report them. *)
  Alcotest.(check bool) "UPDATE reports the row it moved out" true
    (List.mem (Storage.Value.Int 7) (fst (per_audit 2 "audit_old")));
  Alcotest.(check bool) "DELETE reports the row it removed" true
    (List.mem (Storage.Value.Int 8) (fst (per_audit 3 "audit_old")));
  for seed = 1 to 12 do
    let st = Random.State.make [| 0xacce55; seed |] in
    let n = 4 + Random.State.int st 9 in
    let rand k = Array.init n (fun _ -> Random.State.int st k) in
    let ages = rand 10 and zips = rand 3 and oks = rand 2 in
    ignore
      (check_evidence_matrix
         ~label:(Printf.sprintf "seed %d" seed)
         (evidence_stmts ~ages ~zips ~oks))
  done

(* --------------------------------------------------------------- *)
(* Budget parity: every engine cancels at the row engine's row      *)
(* --------------------------------------------------------------- *)

(** Both engines must cancel at the same [rows_scanned] count and leave
    the same partial ACCESSED state: every row charged before the trip
    has already been pushed through the audit probe, as in the row
    engine. *)
let budget_outcome mode =
  let db = Fixtures.healthcare_with_alice () in
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_alice AS NOTIFY 'seen'");
  Db.Database.set_exec_mode db mode;
  Db.Database.set_row_budget db (Some 3);
  (match Db.Database.exec db "SELECT * FROM patients" with
  | _ -> Alcotest.fail "expected a row-budget cancellation"
  | exception E.Error (E.Cancelled { reason; _ }) ->
    Alcotest.(check bool) "row-budget reason" true (reason = E.Row_budget));
  let ctx = Db.Database.context db in
  ( ctx.Exec.Exec_ctx.rows_scanned,
    Exec.Exec_ctx.accessed_list ctx ~audit_name:"audit_alice" )

let test_row_budget_parity () =
  let row_scanned, row_acc = budget_outcome `Row in
  List.iter
    (fun (mname, mode) ->
      if mode <> `Row then begin
        let scanned, acc = budget_outcome mode in
        Alcotest.(check int)
          (mname ^ ": rows_scanned at cancellation")
          row_scanned scanned;
        Alcotest.(check Fixtures.values) (mname ^ ": partial ACCESSED") row_acc
          acc
      end)
    modes;
  (* Alice is row 1: scanned before the budget tripped, so her access must
     be part of the partial state in every mode. *)
  Alcotest.(check bool) "Alice audited" true (row_acc <> [])

let mem_outcome mode =
  let db = Fixtures.healthcare_with_alice () in
  Db.Database.set_exec_mode db mode;
  Db.Database.set_mem_budget db (Some 2);
  (match Db.Database.exec db "SELECT * FROM patients ORDER BY age" with
  | _ -> Alcotest.fail "expected a memory-budget cancellation"
  | exception E.Error (E.Cancelled { reason; _ }) ->
    Alcotest.(check bool) "mem-budget reason" true (reason = E.Memory_budget));
  (Db.Database.context db).Exec.Exec_ctx.tuples_materialized

let test_mem_budget_parity () =
  let oracle = mem_outcome `Row in
  List.iter
    (fun (mname, mode) ->
      if mode <> `Row then
        Alcotest.(check int)
          (mname ^ ": tuples_materialized at cancellation")
          oracle (mem_outcome mode))
    modes

(* --------------------------------------------------------------- *)
(* Compiled kernels and their fallbacks                             *)
(* --------------------------------------------------------------- *)

(* [item] crosses the compiled engine's 256-slot scan chunk and carries
   dictionary-coded strings, ints, floats and dates with NULLs; [ord] and
   [wide] are the small and large join partners; [huge] holds keys at
   and beyond 2^53, where Int/Float equality stops being exact; [memo] is
   indexed on [note], large enough against [ord] for index-NL joins. *)
let kernel_stmts =
  let nul i p v = if i mod p = 0 then "NULL" else v in
  [
    "CREATE TABLE item (iid INT PRIMARY KEY, grp VARCHAR, tag VARCHAR, qty \
     INT, price FLOAT, day DATE)";
    "CREATE TABLE ord (oid INT PRIMARY KEY, iid INT, day DATE, note VARCHAR)";
    "CREATE TABLE wide (wid INT PRIMARY KEY, iid INT, w VARCHAR, big INT)";
    "CREATE TABLE huge (hid INT PRIMARY KEY, k INT, f FLOAT)";
    "CREATE TABLE memo (mid INT PRIMARY KEY, note VARCHAR)";
  ]
  @ List.init 300 (fun i ->
        let i = i + 1 in
        Printf.sprintf
          "INSERT INTO item VALUES (%d,%s,%s,%s,%s,DATE '1995-01-%02d')" i
          (nul i 17 (Printf.sprintf "'%c'" "abc".[i mod 3]))
          (nul i 13 (if i mod 2 = 0 then "'x'" else "'y'"))
          (nul i 11 (string_of_int (i mod 7)))
          (nul i 19 (Printf.sprintf "%.1f" (float_of_int (i mod 10) *. 1.5)))
          (1 + (i mod 28)))
  @ List.init 40 (fun i ->
        let i = i + 1 in
        Printf.sprintf
          "INSERT INTO ord VALUES (%d,%s,DATE '1995-01-%02d','n%d')" i
          (nul i 9 (string_of_int (i * 7 mod 320)))
          (1 + (i mod 5)) (i mod 4))
  @ List.init 600 (fun i ->
        let i = i + 1 in
        Printf.sprintf "INSERT INTO wide VALUES (%d,%d,'w%d',%d)" i (i mod 350)
          (i mod 6)
          (if i mod 100 = 0 then 9007199254740993 else i mod 40))
  @ List.init 200 (fun i ->
        let i = i + 1 in
        Printf.sprintf "INSERT INTO memo VALUES (%d,%s)" i
          (nul i 7 (Printf.sprintf "'n%d'" (i mod 6))))
  @ [
      "CREATE INDEX memo_note ON memo (note)";
      "INSERT INTO huge VALUES (1, 9007199254740992, 9007199254740992.0)";
      "INSERT INTO huge VALUES (2, 9007199254740993, 5.0)";
      "INSERT INTO huge VALUES (3, 5, NULL)";
      "INSERT INTO huge VALUES (4, NULL, 9007199254740993.0)";
      "CREATE AUDIT EXPRESSION audit_ord AS SELECT * FROM ord FOR SENSITIVE \
       TABLE ord, PARTITION BY oid";
    ]

let kernel_queries =
  [
    (* fused grouped aggregation: dictionary keys with a NULL group *)
    "SELECT i.grp, i.tag, count(*), sum(i.qty), avg(i.price), min(i.qty) FROM \
     item i WHERE i.qty > 1 GROUP BY i.grp, i.tag";
    "SELECT i.grp, count(*) FROM item i GROUP BY i.grp";
    (* the scalar case, and its default row over empty input *)
    "SELECT count(*), sum(i.qty * 2 - 1), avg(i.price) FROM item i WHERE \
     i.grp <> 'b'";
    "SELECT count(i.qty), sum(i.price) FROM item i WHERE i.qty > 100";
    (* count-only scan *)
    "SELECT count(*) FROM item";
    (* late-materializing joins: int and date keys, both sizes of partner *)
    "SELECT i.grp, o.note, i.qty FROM item i, ord o WHERE i.iid = o.iid AND \
     i.qty > 1";
    "SELECT o.note, i.tag, o.oid FROM ord o, item i WHERE o.day = i.day AND \
     o.oid < 30";
    "SELECT w.w, i.grp, i.iid FROM wide w, item i WHERE w.iid = i.iid AND \
     i.tag = 'x'";
    (* generic projection-over-join fusion: outer join, residual *)
    "SELECT i.iid, o.oid FROM item i LEFT JOIN ord o ON i.iid = o.iid";
    "SELECT i.iid, o.oid FROM item i, ord o WHERE i.iid = o.iid AND i.qty < \
     o.oid";
    (* keys at and beyond 2^53 on either side *)
    "SELECT a.hid, b.hid FROM huge a, huge b WHERE a.k = b.f";
    "SELECT a.hid, b.hid FROM huge a, huge b WHERE a.f = b.k";
    "SELECT o.note, w.wid FROM ord o, wide w WHERE o.iid = w.big";
    (* bare LIMIT around the 256-row scan chunk and past the table *)
    "SELECT * FROM item LIMIT 0";
    "SELECT * FROM item LIMIT 1";
    "SELECT i.iid, i.grp FROM item i LIMIT 255";
    "SELECT i.iid, i.grp FROM item i LIMIT 256";
    "SELECT i.iid, i.grp FROM item i LIMIT 257";
    "SELECT i.iid, i.grp FROM item i LIMIT 300";
    "SELECT * FROM item LIMIT 1000";
    "SELECT o.oid, o.note FROM ord o LIMIT 3";
    (* LIMIT over a filter and over a join *)
    "SELECT i.iid FROM item i WHERE i.qty > 2 LIMIT 100";
    "SELECT o.oid FROM ord o WHERE o.oid > 5 LIMIT 4";
    "SELECT i.grp, o.note FROM item i, ord o WHERE i.iid = o.iid LIMIT 5";
    "SELECT w.w, i.grp FROM wide w, item i WHERE w.iid = i.iid LIMIT 260";
    (* correlated Apply: non-equi EXISTS / NOT EXISTS, a scalar subquery
       in the SELECT list, an inner LIMIT over a kernel-eligible head *)
    "SELECT o.oid FROM ord o WHERE EXISTS (SELECT 1 FROM item i WHERE i.iid \
     < o.iid AND i.qty = 3)";
    "SELECT o.oid FROM ord o WHERE NOT EXISTS (SELECT 1 FROM item i WHERE \
     i.iid < o.iid AND i.grp = 'c')";
    "SELECT o.oid, (SELECT count(*) FROM item i WHERE i.iid < o.iid) FROM \
     ord o";
    "SELECT o.oid, (SELECT i.grp FROM item i WHERE i.qty > 3 AND i.iid > \
     o.iid LIMIT 1) FROM ord o";
    (* index-NL joins on memo.note, the audit probe on the outer side *)
    "SELECT o.oid, m.mid FROM ord o, memo m WHERE o.note = m.note AND m.mid \
     > 50";
    "SELECT o.oid, m.mid FROM ord o LEFT JOIN memo m ON o.note = m.note AND \
     m.mid < 30";
    "SELECT o.oid, m.mid FROM ord o, memo m WHERE o.note = m.note LIMIT 7";
  ]

(* Every session state in which a kernel must step aside, plus the plain
   one in which it fires. A state is applied before each run, so a fault
   point spent by the row engine's run is re-armed for the compiled one. *)
let kernel_configs =
  let ctx db = Db.Database.context db in
  [
    ("plain", fun _ -> ());
    ("metrics on", fun db -> Db.Database.set_collect_metrics db true);
    ( "row budget armed",
      fun db -> Db.Database.set_row_budget db (Some 1_000_000) );
    ( "memory budget armed",
      fun db -> Db.Database.set_mem_budget db (Some 1_000_000) );
    ( "?hide partition",
      fun db ->
        (ctx db).Exec.Exec_ctx.hide <- Some ("item", 0, Storage.Value.Int 7) );
    ( "interpreter oracle",
      fun db -> (ctx db).Exec.Exec_ctx.interpret_exprs <- true );
    ( "faults armed",
      fun db ->
        Engine_core.Faultkit.arm (Db.Database.faults db)
          [ Engine_core.Faultkit.Op_next { op = "no such operator"; at = 1 } ]
    );
  ]
  @ List.map
      (fun at ->
        ( Printf.sprintf "fault fires at getNext #%d" at,
          fun db ->
            Engine_core.Faultkit.arm (Db.Database.faults db)
              [ Engine_core.Faultkit.Op_next { op = "*"; at } ] ))
      [ 1; 3; 7 ]

(** One statement through [exec] with deferred evidence: rows (or the
    error text), the fired fault points, evidence records, ACCESSED and
    the scan/materialization counters. An error is an outcome only when a
    fault fired; in every other state the statement must return rows. *)
let kernel_outcome db sql =
  let fired () = Engine_core.Faultkit.fired (Db.Database.faults db) in
  let rows =
    match Db.Database.exec db sql with
    | Db.Database.Rows { rows; _ } -> Ok rows
    | _ -> Ok []
    | exception E.Error e when fired () <> [] -> Error (E.to_string e)
  in
  let ctx = Db.Database.context db in
  ( (rows, fired ()),
    List.map Audit_log.Wal.record_to_string
      (Db.Database.take_pending_evidence db),
    Exec.Exec_ctx.accessed_list ctx ~audit_name:"audit_ord",
    (ctx.Exec.Exec_ctx.rows_scanned, ctx.Exec.Exec_ctx.tuples_materialized) )

let outcome_rows =
  Alcotest.(pair (result (list Fixtures.tuple) string) (list string))

let test_kernel_parity () =
  List.iter
    (fun (sname, storage) ->
      List.iter
        (fun (cname, configure) ->
          List.iter
            (fun instrument ->
              let db = mk_db storage kernel_stmts in
              Db.Database.set_heuristic db Audit_core.Placement.Leaf;
              Db.Database.set_instrumentation db instrument;
              Db.Database.set_deferred_evidence db true;
              List.iter
                (fun sql ->
                  let run mode =
                    Db.Database.set_exec_mode db mode;
                    configure db;
                    kernel_outcome db sql
                  in
                  let rows, evidence, accessed, counters = run `Row in
                  let rows', evidence', accessed', counters' = run `Compiled in
                  let l =
                    Printf.sprintf "[%s %s%s] %s" sname cname
                      (if instrument then "" else " uninstrumented")
                      sql
                  in
                  Alcotest.check outcome_rows ("rows, faults " ^ l) rows rows';
                  Alcotest.(check (list string))
                    ("evidence " ^ l) evidence evidence';
                  Alcotest.(check Fixtures.values)
                    ("accessed " ^ l) accessed accessed';
                  Alcotest.(check (pair int int))
                    ("rows_scanned, tuples_materialized " ^ l)
                    counters counters')
                kernel_queries)
            [ true; false ])
        kernel_configs)
    [ ("heap", Storage.Table.Heap); ("columnar", Storage.Table.Columnar) ]

(* --------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf
         "seeded corpus (%d cases, 3 heuristics, row/compiled x \
          heap/columnar)"
         n_seeded_cases)
      `Slow test_seeded_corpus;
    Alcotest.test_case
      "TPC-H corpus (20 queries, 3 heuristics, row/compiled x \
       heap/columnar)"
      `Slow test_tpch_corpus;
    Alcotest.test_case
      "notifications byte-equal through exec in every engine x storage" `Quick
      test_notification_parity;
    Alcotest.test_case
      "ACCESSED evidence byte-equal in every engine x storage, through \
       trigger cascades and mid-statement DML, never below the mark scan"
      `Quick test_evidence_parity;
    Alcotest.test_case "row budget cancels at the same row in every mode"
      `Quick test_row_budget_parity;
    Alcotest.test_case "memory budget cancels at the same tuple in every mode"
      `Quick test_mem_budget_parity;
    Alcotest.test_case
      "compiled kernels = row in every fallback state (rows, evidence, \
       counters)"
      `Quick test_kernel_parity;
  ]
