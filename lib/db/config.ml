type exec = [ `Row | `Compiled ]
type verify_mode = Off | Warn | Strict
type elision_mode = Elide_off | Elide_certified

type t = {
  exec : exec;
  storage : Storage.Table.storage;
  elision : elision_mode;
  verify : verify_mode;
}

let default =
  { exec = `Row; storage = Storage.Table.Heap; elision = Elide_off;
    verify = Off }

let norm s = String.lowercase_ascii (String.trim s)

let exec_of_string s =
  match norm s with
  | "row" -> Some `Row
  | "compiled" | "push" -> Some `Compiled
  | _ -> None

let exec_to_string = function `Row -> "row" | `Compiled -> "compiled"
let storage_of_string = Storage.Table.storage_of_string
let storage_to_string = Storage.Table.storage_to_string

let elision_of_string s =
  match norm s with
  | "off" | "0" -> Some Elide_off
  | "certified" | "on" | "1" -> Some Elide_certified
  | _ -> None

let elision_to_string = function
  | Elide_off -> "off"
  | Elide_certified -> "certified"

let verify_of_string s =
  match norm s with
  | "off" -> Some Off
  | "warn" -> Some Warn
  | "strict" | "1" -> Some Strict
  | _ -> None

let verify_to_string = function
  | Off -> "off"
  | Warn -> "warn"
  | Strict -> "strict"
