(* Order statistics over float samples. Percentiles are nearest-rank:
   the smallest sample with at least a share [p] of all samples at or
   below it. *)

let pct xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median xs = pct xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function [] -> nan | xs -> exp (mean (List.map log xs))

(* One measured value of a statement: when it completed (seconds into
   its phase), its shape, and the value. *)
type sample = { t : float; shape : int; v : float }

let values samples = List.map (fun s -> s.v) samples

(* Samples grouped by shape (shapes with no samples are absent). *)
let by_shape (samples : sample list) : float list list =
  let h = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace h s.shape
        (s.v :: Option.value (Hashtbl.find_opt h s.shape) ~default:[]))
    samples;
  Hashtbl.fold (fun _ vs acc -> vs :: acc) h []

(* The geometric mean over shapes of each shape's own percentile. A mix
   of shapes whose latencies differ several-fold has no stable overall
   median (it lands in the gap between two shapes); each shape's own
   percentile is stable, and the geometric mean weighs every shape's
   relative change alike, as TPC-H's power metric does. With one shape
   this is that shape's percentile. *)
let shape_pct samples p =
  geomean (List.map (fun vs -> pct vs p) (by_shape samples))

(* Audited over unaudited cost of the same statements: each shape's
   median on either side, weighted by how often the shape ran. Like a
   ratio of total latencies, it weighs the expensive shapes by their
   share of the work; unlike it, one stall of a second on either side
   cannot swing it. *)
let paired_ratio (audited : sample list) (twin : sample list) =
  let shapes = List.sort_uniq compare (List.map (fun s -> s.shape) audited) in
  let of_shape sh xs = List.filter_map (fun s -> if s.shape = sh then Some s.v else None) xs in
  let weighted side =
    sum
      (List.map
         (fun sh ->
           float_of_int (List.length (of_shape sh audited)) *. median (of_shape sh side))
         shapes)
  in
  weighted audited /. weighted twin
