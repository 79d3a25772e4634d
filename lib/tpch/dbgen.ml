(** Deterministic TPC-H data generator.

    A splitmix64-seeded dbgen producing the standard cardinalities scaled by
    [sf]: |customer| = 150,000·sf, |orders| = 1,500,000·sf, |lineitem| ≈
    4·|orders|, |supplier| = 10,000·sf, |part| = 200,000·sf, |partsupp| =
    4·|part|, plus the fixed 25 nations / 5 regions. Distributions follow
    the spec where the evaluation depends on them:

    - [c_mktsegment] uniform over 5 segments (so one segment ≈ 20 % of
      customers — the paper's audit expression, §V);
    - [o_orderdate] uniform over [1992-01-01, 1998-08-02] (the Fig 6/7
      selectivity sweep predicate);
    - [c_acctbal] uniform in [-999.99, 9999.99];
    - key–FK relationships exact; ~1 % of order comments contain the
      Q13 "special ... requests" pattern.

    Loading bypasses the SQL layer for speed but goes through {!Storage}
    tables, so view-maintenance hooks still observe every insert. *)

open Storage

(* splitmix64: tiny, fast, and identical across runs/platforms. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform int in [0, n). *)
  let int t n =
    if n <= 0 then invalid_arg "Rng.int";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  (* Uniform int in [lo, hi] inclusive. *)
  let range t lo hi = lo + int t (hi - lo + 1)

  let float t lo hi =
    let u =
      Int64.to_float (Int64.logand (next t) 0xFFFFFFFFFFFFFL)
      /. 4503599627370496.0
    in
    lo +. (u *. (hi -. lo))

  let choice t arr = arr.(int t (Array.length arr))
  let bool t p = float t 0.0 1.0 < p
end

type sizes = {
  customers : int;
  orders : int;
  suppliers : int;
  parts : int;
}

let sizes_of_sf sf =
  let scale base = max 1 (int_of_float (float_of_int base *. sf)) in
  {
    customers = scale 150_000;
    orders = scale 1_500_000;
    suppliers = scale 10_000;
    parts = scale 200_000;
  }

let start_date = Value.date_of_string "1992-01-01"
let end_date = Value.date_of_string "1998-08-02"

let money rng lo hi = Float.round (Rng.float rng lo hi *. 100.0) /. 100.0

(* lineitem's returnflag/linestatus cut-over date *)
let cutoff_date = Value.date_of_string "1995-06-17"

(* The generator builds its strings by concatenation, once per cell of
   the load. Where a string takes several random draws, they are bound in
   a fixed order that the data set depends on (test_tpch pins its
   digest). *)

(* [n >= 0] zero-padded to [width] digits, as [%0*d] would. *)
let zpad width n =
  let s = string_of_int n in
  let len = String.length s in
  if len >= width then s else String.make (width - len) '0' ^ s

let moods = [| "ironic"; "final"; "pending"; "bold"; "quiet" |]

let comment rng noun =
  let mood = Rng.choice rng moods in
  let n = Rng.int rng 100000 in
  String.concat ""
    [
      noun; " requests sleep "; string_of_int n; " furiously among the "; mood;
      " deposits";
    ]

let phone rng nationkey =
  let d = Rng.range rng 1000 9999 in
  let c = Rng.range rng 100 999 in
  let b = Rng.range rng 100 999 in
  String.concat "-"
    [ string_of_int (10 + nationkey); string_of_int b; string_of_int c;
      string_of_int d ]

(** Create the eight empty tables via DDL. *)
let create_tables db =
  List.iter (fun ddl -> ignore (Db.Database.exec db ddl)) Tpch_schema.all

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s
let vd d = Value.Date d

let load_region catalog =
  let t = Catalog.find catalog "region" in
  Array.iteri
    (fun i name ->
      Table.insert t [| vi i; vs name; vs ("region " ^ name) |])
    Tpch_schema.regions

let load_nation catalog =
  let t = Catalog.find catalog "nation" in
  Array.iteri
    (fun i (name, rk) ->
      Table.insert t [| vi i; vs name; vi rk; vs ("nation " ^ name) |])
    Tpch_schema.nations

let load_supplier catalog rng n =
  let t = Catalog.find catalog "supplier" in
  for k = 1 to n do
    let nation = Rng.int rng 25 in
    Table.insert t
      [|
        vi k;
        vs ("Supplier#" ^ zpad 9 k);
        vs ("addr sup " ^ string_of_int (Rng.int rng 100000));
        vi nation;
        vs (phone rng nation);
        vf (money rng (-999.99) 9999.99);
        vs (comment rng "supplier");
      |]
  done

let load_customer catalog rng n =
  let t = Catalog.find catalog "customer" in
  for k = 1 to n do
    let nation = Rng.int rng 25 in
    Table.insert t
      [|
        vi k;
        vs ("Customer#" ^ zpad 9 k);
        vs ("addr cust " ^ string_of_int (Rng.int rng 100000));
        vi nation;
        vs (phone rng nation);
        vf (money rng (-999.99) 9999.99);
        vs (Rng.choice rng Tpch_schema.market_segments);
        vs (comment rng "customer");
      |]
  done

let load_part catalog rng n =
  let t = Catalog.find catalog "part" in
  let colors = [| "almond"; "antique"; "azure"; "beige"; "bisque" |] in
  for k = 1 to n do
    Table.insert t
      [|
        vi k;
        vs
          (let second = Rng.choice rng colors in
           let first = Rng.choice rng colors in
           String.concat "" [ first; " "; second; " part" ]);
        vs ("Manufacturer#" ^ string_of_int (Rng.range rng 1 5));
        vs (Rng.choice rng Tpch_schema.brands);
        vs (Rng.choice rng Tpch_schema.part_types);
        vi (Rng.range rng 1 50);
        vs (Rng.choice rng Tpch_schema.containers);
        vf (money rng 900.0 2000.0);
        vs (comment rng "part");
      |]
  done

let load_partsupp catalog rng nparts nsupp =
  let t = Catalog.find catalog "partsupp" in
  for p = 1 to nparts do
    for i = 0 to 3 do
      let s = 1 + ((p + (i * ((nsupp / 4) + 1))) mod nsupp) in
      Table.insert t
        [|
          vi p;
          vi s;
          vi (Rng.range rng 1 9999);
          vf (money rng 1.0 1000.0);
          vs (comment rng "partsupp");
        |]
    done
  done

let returned_flags = [| "R"; "A" |]
let order_statuses = [| "O"; "F"; "P" |]

let load_orders_lineitem catalog rng ~orders:norders ~customers:ncust
    ~parts:nparts ~suppliers:nsupp =
  let ot = Catalog.find catalog "orders" in
  let lt = Catalog.find catalog "lineitem" in
  for ok = 1 to norders do
    let custkey = Rng.range rng 1 ncust in
    let orderdate = Rng.range rng start_date end_date in
    let nlines = Rng.range rng 1 7 in
    let total = ref 0.0 in
    let lines = ref [] in
    for ln = 1 to nlines do
      let qty = float_of_int (Rng.range rng 1 50) in
      let price = money rng 900.0 10000.0 in
      let extended = Float.round (qty *. price) /. 1.0 in
      let discount = float_of_int (Rng.range rng 0 10) /. 100.0 in
      let tax = float_of_int (Rng.range rng 0 8) /. 100.0 in
      let shipdate = orderdate + Rng.range rng 1 121 in
      let commitdate = orderdate + Rng.range rng 30 90 in
      let receiptdate = shipdate + Rng.range rng 1 30 in
      let returnflag =
        if receiptdate <= cutoff_date then Rng.choice rng returned_flags
        else "N"
      in
      let linestatus = if shipdate > cutoff_date then "O" else "F" in
      total := !total +. (extended *. (1.0 +. tax) *. (1.0 -. discount));
      lines :=
        [|
          vi ok;
          vi (Rng.range rng 1 nparts);
          vi (Rng.range rng 1 nsupp);
          vi ln;
          vf qty;
          vf extended;
          vf discount;
          vf tax;
          vs returnflag;
          vs linestatus;
          vd shipdate;
          vd commitdate;
          vd receiptdate;
          vs (Rng.choice rng Tpch_schema.ship_instructs);
          vs (Rng.choice rng Tpch_schema.ship_modes);
          vs (comment rng "lineitem");
        |]
        :: !lines
    done;
    let ocomment =
      if Rng.bool rng 0.01 then "was special handling requests carefully"
      else comment rng "order"
    in
    Table.insert ot
      [|
        vi ok;
        vi custkey;
        vs (Rng.choice rng order_statuses);
        vf (Float.round (!total *. 100.0) /. 100.0);
        vd orderdate;
        vs (Rng.choice rng Tpch_schema.order_priorities);
        vs ("Clerk#" ^ zpad 9 (Rng.range rng 1 1000));
        vi 0;
        vs ocomment;
      |];
    List.iter (Table.insert lt) !lines
  done

(** Create and populate all TPC-H tables at scale factor [sf]. *)
let load ?(seed = 42) db ~sf =
  let s = sizes_of_sf sf in
  let rng = Rng.create seed in
  create_tables db;
  let catalog = Db.Database.catalog db in
  load_region catalog;
  load_nation catalog;
  load_supplier catalog rng s.suppliers;
  load_customer catalog rng s.customers;
  load_part catalog rng s.parts;
  load_partsupp catalog rng s.parts s.suppliers;
  load_orders_lineitem catalog rng ~orders:s.orders ~customers:s.customers
    ~parts:s.parts ~suppliers:s.suppliers;
  s
