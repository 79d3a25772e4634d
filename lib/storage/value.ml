(** SQL values.

    A value is a dynamically-typed cell of a tuple. Dates are stored as a
    number of days since 1970-01-01 (proleptic Gregorian calendar), which
    makes comparisons and interval arithmetic integer operations. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1970-01-01 *)

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Calendar conversions (Howard Hinnant's civil-days algorithms).      *)
(* ------------------------------------------------------------------ *)

(* Floor division, needed because OCaml's (/) truncates toward zero. *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

let days_of_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = fdiv y 400 in
  let yoe = y - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_of_days z =
  let z = z + 719468 in
  let era = fdiv z 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> type_error "invalid month %d" m

let date_of_string s =
  let fail () = type_error "invalid date literal %S (expected YYYY-MM-DD)" s in
  match String.split_on_char '-' (String.trim s) with
  | [ y; m; d ] -> (
    match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
    | Some year, Some month, Some day
      when month >= 1 && month <= 12 && day >= 1
           && day <= days_in_month year month ->
      days_of_civil ~year ~month ~day
    | _ -> fail ())
  | _ -> fail ()

let string_of_date z =
  let y, m, d = civil_of_days z in
  Printf.sprintf "%04d-%02d-%02d" y m d

(* Calendar-aware date shifting: adding months clamps the day to the end of
   the target month, matching SQL interval semantics. *)
let add_months z n =
  let y, m, d = civil_of_days z in
  let months = ((y * 12) + (m - 1)) + n in
  let y' = fdiv months 12 in
  let m' = (months - (y' * 12)) + 1 in
  let d' = min d (days_in_month y' m') in
  days_of_civil ~year:y' ~month:m' ~day:d'

let add_years z n = add_months z (12 * n)
let add_days z n = z + n

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string = function
  | Null -> "NULL"
  | Bool true -> "true"
  | Bool false -> "false"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s -> s
  | Date z -> string_of_date z

let pp ppf v = Fmt.string ppf (to_string v)

(* SQL-literal rendering: strings quoted, dates as DATE '...'. *)
let to_sql_literal = function
  | Null -> "NULL"
  | Bool b -> if b then "TRUE" else "FALSE"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Str s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c)
      s;
    Buffer.add_char b '\'';
    Buffer.contents b
  | Date z -> Printf.sprintf "DATE '%s'" (string_of_date z)

(* ------------------------------------------------------------------ *)
(* Equality / ordering                                                 *)
(* ------------------------------------------------------------------ *)

let is_null = function Null -> true | _ -> false

(* Total order used for sorting and as a Map/Set key. NULL sorts first,
   then bools, ints/floats (numerically interleaved), strings, dates. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | Date _ -> 4

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare_total a b = 0

(* SQL comparison: [None] when either side is NULL (unknown). *)
let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ -> Some (compare_total a b)

(* Hash compatible with [equal]: Int 2 and Float 2.0 are equal, so
   integer-valued floats within the exactly-representable range hash through
   the int path (which also avoids boxing a float per probe — the audit
   operator hashes on every row). *)
let max_exact_int_float = 9007199254740992 (* 2^53 *)

let hash = function
  | Null -> 0
  | Bool b -> Hashtbl.hash b
  | Int i ->
    if abs i < max_exact_int_float then Hashtbl.hash i
    else Hashtbl.hash (float_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < float_of_int max_exact_int_float
    then Hashtbl.hash (int_of_float f)
    else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Date z -> Hashtbl.hash (z, 'd')

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare_total
end

module Hashtbl_v = Hashtbl.Make (Key)
module Set_v = Set.Make (Key)
module Map_v = Map.Make (Key)

(* ------------------------------------------------------------------ *)
(* Arithmetic with numeric promotion                                   *)
(* ------------------------------------------------------------------ *)

let to_float_exn = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected a number, got %s" (to_string v)

let to_int_exn = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> type_error "expected an integer, got %s" (to_string v)

let to_str_exn = function
  | Str s -> s
  | v -> type_error "expected a string, got %s" (to_string v)

let to_date_exn = function
  | Date z -> z
  | Str s -> date_of_string s
  | v -> type_error "expected a date, got %s" (to_string v)

let arith name int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    Float (float_op (to_float_exn a) (to_float_exn b))
  | _ -> type_error "cannot apply %s to %s and %s" name (to_string a)
           (to_string b)

let add a b =
  match (a, b) with
  | Date z, Int n | Int n, Date z -> Date (z + n)
  | _ -> arith "+" ( + ) ( +. ) a b

let sub a b =
  match (a, b) with
  | Date z, Int n -> Date (z - n)
  | Date x, Date y -> Int (x - y)
  | _ -> arith "-" ( - ) ( -. ) a b

let mul = arith "*" ( * ) ( *. )

(* SQL-style division: integer / integer truncates (SQL Server semantics);
   any float operand promotes to float division. *)
let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, (Int 0 | Float 0.) -> type_error "division by zero"
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
    Float (to_float_exn a /. to_float_exn b)
  | _ -> type_error "cannot divide %s by %s" (to_string a) (to_string b)

let modulo a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> type_error "modulo by zero"
  | Int x, Int y -> Int (x mod y)
  | _ -> type_error "cannot take %s mod %s" (to_string a) (to_string b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> type_error "cannot negate %s" (to_string v)

(* ------------------------------------------------------------------ *)
(* LIKE pattern matching ('%' = any run, '_' = any single char)        *)
(* ------------------------------------------------------------------ *)

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Iterative matcher with single-backtrack point for the last '%', the
     classic glob algorithm: O(np * ns) worst case, linear in practice. *)
  let rec go pi si star_pi star_si =
    if si = ns then
      (* Consume trailing '%'s. *)
      let rec only_pct pi = pi = np || (pattern.[pi] = '%' && only_pct (pi + 1)) in
      only_pct pi
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si pi si
    else if star_pi >= 0 then go (star_pi + 1) (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

let extract_year = function
  | Null -> Null
  | Date z ->
    let y, _, _ = civil_of_days z in
    Int y
  | v -> type_error "EXTRACT(YEAR) on non-date %s" (to_string v)

let extract_month = function
  | Null -> Null
  | Date z ->
    let _, m, _ = civil_of_days z in
    Int m
  | v -> type_error "EXTRACT(MONTH) on non-date %s" (to_string v)
