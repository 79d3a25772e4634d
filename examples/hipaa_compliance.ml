(* HIPAA disclosure accounting — Example 1.1 end to end.

   HIPAA lets any patient demand the name of every entity to whom her
   information was revealed. Because we cannot know in advance who will ask,
   the audit expression covers *all* patients, and a SELECT trigger logs
   every access online as queries execute (no database rollback needed).

   The example plays both halves of the paper's Figure 1 pipeline, as
   packaged by [Db.Disclosure]:
   1. online: the SELECT trigger (hcn placement) filters the query stream,
      recording candidate accesses in the log;
   2. offline: when Alice requests her disclosure report, the flagged
      queries are verified with the exact auditor (Definition 2.3,
      [Db.Database.exact_accessed]) to discard the online filter's false
      positives. *)

let () =
  let db = Db.Database.create () in
  let e sql = ignore (Db.Database.exec db sql) in

  (* A small hospital: 200 patients, diseases, one record each. *)
  e "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age INT, zip INT)";
  e "CREATE TABLE disease (patientid INT, disease VARCHAR)";
  let diseases = [| "flu"; "cancer"; "diabetes"; "asthma"; "migraine" |] in
  for i = 1 to 200 do
    let name = if i = 1 then "Alice" else Printf.sprintf "Patient%03d" i in
    e
      (Printf.sprintf "INSERT INTO patients VALUES (%d, '%s', %d, %d)" i name
         (20 + (i * 7 mod 60))
         (10000 + (i * 13 mod 90000)));
    e
      (Printf.sprintf "INSERT INTO disease VALUES (%d, '%s')" i
         diseases.(i mod Array.length diseases))
  done;
  Printf.printf "hospital loaded: 200 patients (Alice is patient 1, %s)\n"
    (Storage.Value.to_string
       (Db.Database.query_value db
          "SELECT disease FROM disease WHERE patientid = 1"));

  (* Audit everything: HIPAA requires auditing for every patient. The
     disclosure log and its SELECT trigger come from [Db.Disclosure]. *)
  let audit_name = "audit_all_patients" in
  e
    "CREATE AUDIT EXPRESSION audit_all_patients AS SELECT * FROM patients \
     FOR SENSITIVE TABLE patients, PARTITION BY patientid";
  Db.Disclosure.install db ~audit_name ();

  (* A day of queries from different users. *)
  let workload =
    [
      ("dr_house", "SELECT * FROM patients p, disease d WHERE p.patientid = d.patientid AND d.disease = 'cancer'");
      ("dr_wilson", "SELECT name, age FROM patients WHERE zip < 20000");
      ("billing", "SELECT count(*) FROM patients");
      ("dr_house", "SELECT * FROM patients WHERE name = 'Alice'");
      ("intern", "SELECT TOP 5 name, age FROM patients ORDER BY age");
      ("analyst", "SELECT d.disease, count(*) FROM patients p, disease d WHERE p.patientid = d.patientid GROUP BY d.disease HAVING count(*) > 10");
    ]
  in
  List.iter
    (fun (user, sql) ->
      Db.Database.set_user db user;
      ignore (Db.Database.exec db sql))
    workload;

  (* Alice requests her disclosure report: every access the online filter
     logged, each re-checked offline with the exact deletion-semantics
     auditor (Definition 2.3). *)
  print_endline "\n=== Disclosure report for Alice (patient 1) ===";
  let alice = Storage.Value.Int 1 in
  let report = Db.Disclosure.report db ~audit_name ~id:alice in
  Printf.printf "online filter flagged %d distinct (user, query) pairs:\n"
    (List.length report);
  List.iter
    (fun (r : Db.Disclosure.entry) -> Printf.printf "  %-9s %s\n" r.user r.sql)
    report;
  print_endline "\noffline verification (exact, Definition 2.3):";
  let verified, false_positives =
    List.partition (fun (r : Db.Disclosure.entry) -> r.verified) report
  in
  List.iter
    (fun (r : Db.Disclosure.entry) ->
      Printf.printf "  CONFIRMED  %-9s %s\n" r.user r.sql)
    verified;
  List.iter
    (fun (r : Db.Disclosure.entry) ->
      Printf.printf "  DISCARDED  %-9s %s  (online false positive)\n" r.user
        r.sql)
    false_positives;
  Printf.printf "\nAlice's record was revealed to: %s\n"
    (String.concat ", " (Db.Disclosure.revealed_to db ~audit_name ~id:alice))
