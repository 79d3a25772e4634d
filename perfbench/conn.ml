(* One wire connection owned by the generator's single thread. Requests
   go out as whole frames; replies accumulate in a byte buffer and are
   taken out frame by frame as they complete, so one [Unix.select] can
   watch several connections and a connection may have several
   statements in flight (the server answers them in order). *)

module Wire = Server.Wire

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable session : int;
  mutable seq : int;  (* last statement sequence number sent *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; len = 0; session = 0; seq = 0 }

(* Send one statement with the next sequence number; the server stamps
   that number onto the statement's evidence records. *)
let send t line =
  t.seq <- t.seq + 1;
  Wire.send_request t.fd (Wire.Exec { seq = t.seq; line });
  t.seq

(* One read of whatever has arrived; blocks only when nothing has. *)
let fill t =
  if t.len = Bytes.length t.buf then begin
    let bigger = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
  | 0 -> failwith "server closed the connection"
  | n -> t.len <- t.len + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* The next complete reply already received, if any. *)
let take t : Wire.response option =
  if t.len < 4 then None
  else
    let n = Wire.decode_len (Bytes.sub_string t.buf 0 4) in
    if t.len < 4 + n then None
    else begin
      let payload = Bytes.sub_string t.buf 4 n in
      Bytes.blit t.buf (4 + n) t.buf 0 (t.len - 4 - n);
      t.len <- t.len - 4 - n;
      match Wire.decode_response payload with
      | Ok r -> Some r
      | Error m -> failwith ("undecodable reply frame: " ^ m)
    end

let rec recv t =
  match take t with
  | Some r -> r
  | None ->
    fill t;
    recv t

type outcome = Ok of string | Error of string | Shed

let outcome = function
  | Wire.Result text -> Ok text
  | Wire.Failed m -> Error m
  | Wire.Overloaded _ -> Shed
  | Wire.Greeting _ | Wire.Goodbye -> Error "unexpected reply frame"

let exec t line =
  let seq = send t line in
  (seq, outcome (recv t))

let hello t ~user =
  Wire.send_request t.fd (Wire.Hello { user; token = "" });
  match recv t with
  | Wire.Greeting { session; _ } -> t.session <- session
  | _ -> failwith "expected a greeting"

(* Every session of the benchmark runs under strict plan verification. *)
let start_session t =
  match exec t "\\verify mode strict" with
  | _, Ok "verify mode strict" -> ()
  | _ -> failwith "server did not confirm \\verify mode strict"

let close t =
  (try Wire.send_request t.fd Wire.Quit; ignore (recv t) with _ -> ());
  try Unix.close t.fd with _ -> ()
