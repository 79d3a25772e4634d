(* The workloads: their server configuration and their seeded statement
   streams. Every workload runs TPC-H at SF 0.01 on heap storage with the
   §V audit expression (BUILDING segment, about a fifth of the customers)
   watched by a SELECT trigger. *)

module Rng = Tpch.Dbgen.Rng

type t = Point_lookup | Audited_writes

let all = [ Point_lookup; Audited_writes ]

let name = function
  | Point_lookup -> "point_lookup"
  | Audited_writes -> "audited_writes"

let of_string s = List.find_opt (fun w -> name w = s) all
let sf = 0.01
let customers = (Tpch.Dbgen.sizes_of_sf sf).Tpch.Dbgen.customers
let audit_name = "audit_customer"
let storage = "heap"

(* Open-loop arrival rate of point_lookup, statements per second over
   both connections: about a third of what one connection sustains
   closed-loop, so the queue stays short unless the server slows. *)
let point_rate = 3000.0

(* The workload's own schema, on both the audited server and its twin,
   so that the two differ only in the audit expression and its trigger. *)
let schema_statements = function
  | Audited_writes ->
    [
      "CREATE TABLE customer_history (h_custkey INT, h_acctbal FLOAT)";
      "CREATE TRIGGER keep_history ON customer AFTER UPDATE AS INSERT INTO \
       customer_history SELECT c_custkey, c_acctbal FROM new";
    ]
  | Point_lookup -> []

(* The audited server's init script: the audit expression, the SELECT
   trigger on it, then the workload's schema. *)
let audited_statements w =
  [
    Tpch.Queries.audit_segment ~name:audit_name ();
    Printf.sprintf
      "CREATE TRIGGER watch_customer ON ACCESS TO %s AS NOTIFY 'customer \
       accessed'"
      audit_name;
  ]
  @ schema_statements w

let script statements = String.concat ";\n" statements ^ ";\n"

(* Names of the objects of [kind] ("TRIGGER", "AUDIT EXPRESSION") that
   [statements] create. *)
let created kind statements =
  let prefix = "CREATE " ^ kind ^ " " in
  List.filter_map
    (fun s ->
      if String.starts_with ~prefix s then
        let rest = String.sub s (String.length prefix) (String.length s - String.length prefix) in
        Some (List.hd (String.split_on_char ' ' rest))
      else None)
    statements

type kind = Read | Update | Count

type stmt = { sql : string; kind : kind; key : int }

(* Statement shapes, over which latency is summarised: the statement
   kind, split by whether it touches an audited row (one of the keys in
   [building]) — those carry evidence and wait for its fsync. *)
let shape ~building st =
  let kind = match st.kind with Read -> 0 | Update -> 1 | Count -> 2 in
  (2 * kind) + if st.kind <> Count && Hashtbl.mem building st.key then 1 else 0

let is_select st = st.kind <> Update

let read k =
  { sql = Printf.sprintf "SELECT * FROM customer WHERE c_custkey = %d" k;
    kind = Read; key = k }

let update k =
  {
    sql =
      Printf.sprintf
        "UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d" k;
    kind = Update;
    key = k;
  }

let count k =
  { sql = Printf.sprintf "SELECT count(*) FROM orders WHERE o_custkey = %d" k;
    kind = Count; key = k }

(* One seeded statement stream. [lane] separates the streams of one run
   (one per connection and phase), so that the same seed always yields
   the same statements on the same connection. *)
type stream = { w : t; rng : Rng.t; pending : stmt Queue.t }

let stream w ~seed ~lane =
  { w; rng = Rng.create ((abs seed * 7919) + lane); pending = Queue.create () }

let key s = 1 + Rng.int s.rng customers

let next s =
  match s.w with
  | Point_lookup -> read (key s)
  | Audited_writes ->
    (* Each connection cycles update → read → count on one customer. *)
    if Queue.is_empty s.pending then begin
      let k = key s in
      List.iter (fun st -> Queue.push st s.pending) [ update k; read k; count k ]
    end;
    Queue.pop s.pending

(* Does a single server's reply text have the shape the statement
   demands? (Paired phases also compare the two servers' texts.) *)
let ends_with s suffix =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let reply_ok st text =
  match st.kind with
  | Read -> (
    ends_with text "\n(1 rows)"
    &&
    match String.split_on_char '\n' text with
    | _header :: row :: _ ->
      let prefix = string_of_int st.key ^ " |" in
      String.length row >= String.length prefix
      && String.sub row 0 (String.length prefix) = prefix
    | _ -> false)
  | Update -> text = "(1 rows affected)"
  | Count -> ends_with text "\n(1 rows)"
