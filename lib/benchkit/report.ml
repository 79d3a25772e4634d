(** Plain-text table/figure rendering for the experiment harness.

    Each paper figure is printed as a titled, aligned table (a "series per
    column" view of the original plot) so runs can be diffed textually and
    recorded in EXPERIMENTS.md. *)

let print_title title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n| %s |\n%s\n" line title line

let print_note note = Printf.printf "%s\n" note

(** Print an aligned table: [headers] then [rows]. *)
let print_table ~headers rows =
  let all = headers :: rows in
  let ncols = List.length headers in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let w = List.nth widths i in
          let pad = String.make (w - String.length cell) ' ' in
          (* Right-align numbers, left-align text. *)
          if String.length cell > 0 && (cell.[0] = '-' || (cell.[0] >= '0' && cell.[0] <= '9'))
          then pad ^ cell
          else cell ^ pad)
        row
    in
    Printf.printf "  %s\n" (String.concat "  " cells)
  in
  print_row headers;
  Printf.printf "  %s\n"
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows;
  Printf.printf "%!"

let pct f = Printf.sprintf "%.2f%%" f
let secs f = Printf.sprintf "%.4fs" f
let int i = string_of_int i
