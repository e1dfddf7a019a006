type align = Left | Right

type cell = Int of int | Float of int * float | Pct of int * float | Text of string

type row = Cells of cell list | Separator

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reverse order *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch with header";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let title t = t.title

let columns t = List.combine t.headers t.aligns

let row_list t = List.rev t.rows

let thousands n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cell_text = function
  | Int n -> thousands n
  | Float (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Pct (decimals, x) -> Printf.sprintf "%.*f%%" decimals x
  | Text s -> s

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render_rows ?title columns rows =
  let headers = List.map fst columns and aligns = List.map snd columns in
  let rows =
    List.map (function Separator -> None | Cells cells -> Some (List.map cell_text cells)) rows
  in
  let widths =
    List.fold_left
      (fun acc row ->
        match row with
        | None -> acc
        | Some cells -> List.map2 (fun w c -> max w (String.length c)) acc cells)
      (List.map String.length headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let rule () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_string buf ("| " ^ pad a w c ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  Option.iter (fun title -> Buffer.add_string buf (title ^ "\n")) title;
  rule ();
  emit_cells headers;
  rule ();
  List.iter (function None -> rule () | Some cells -> emit_cells cells) rows;
  rule ();
  Buffer.contents buf

let render t = render_rows ?title:t.title (columns t) (row_list t)

let print t = print_string (render t)
