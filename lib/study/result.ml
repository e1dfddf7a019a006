type item =
  | Table of {
      title : string option;
      columns : (string * Table.align) list;
      rows : Table.row list;
    }
  | Series of { label : string; points : (string * float) list }
  | Scalar of { text : string; values : (string * Table.cell) list }
  | Note of string
  | Paper_ref of string

type report = { id : string; section : string; items : item list }

type format = Text | Json | Csv

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let report ~id ~section items = { id; section; items }

let of_table t =
  Table { title = Table.title t; columns = Table.columns t; rows = Table.row_list t }

let series ~label points = Series { label; points }

let scalar ~text values = Scalar { text; values }

let note fmt = Printf.ksprintf (fun s -> Note s) fmt

let paper s = Paper_ref s

(* ------------------------------------------------------------------ *)
(* Reading values back                                                *)
(* ------------------------------------------------------------------ *)

let column r name =
  List.concat_map
    (function
      | Table { columns; rows; _ } -> (
          match List.find_index (fun (header, _) -> header = name) columns with
          | None -> []
          | Some k ->
              List.filter_map
                (function Table.Cells cells -> Some (List.nth cells k) | Table.Separator -> None)
                rows)
      | Scalar { values; _ } ->
          List.filter_map (fun (label, c) -> if label = name then Some c else None) values
      | Series _ | Note _ | Paper_ref _ -> [])
    r.items

(* ------------------------------------------------------------------ *)
(* Text rendering (byte-identical to the historical printf output)    *)
(* ------------------------------------------------------------------ *)

let section_banner title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" bar title bar

let item_text = function
  | Table { title; columns; rows } -> Table.render_rows ?title columns rows
  | Series { label; points } -> Chart.bars ~title:label points
  | Scalar { text; _ } -> Printf.sprintf "  %s\n" text
  | Note s -> Printf.sprintf "  %s\n" s
  | Paper_ref s -> Printf.sprintf "  [paper] %s\n" s

let render_text r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (section_banner r.section);
  List.iter (fun item -> Buffer.add_string buf (item_text item)) r.items;
  Buffer.contents buf

let print r = print_string (render_text r)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let align_to_json = function Table.Left -> Json.String "left" | Table.Right -> Json.String "right"

let cell_to_json = function
  | Table.Text s -> Json.String s
  | Table.Int n -> Json.Obj [ ("kind", Json.String "int"); ("value", Json.Int n) ]
  | Table.Float (decimals, x) ->
      Json.Obj
        [ ("kind", Json.String "float"); ("value", Json.Float x); ("decimals", Json.Int decimals) ]
  | Table.Pct (decimals, x) ->
      Json.Obj
        [ ("kind", Json.String "pct"); ("value", Json.Float x); ("decimals", Json.Int decimals) ]

let item_to_json = function
  | Table { title; columns; rows } ->
      Json.Obj
        [
          ("kind", Json.String "table");
          ("title", match title with None -> Json.Null | Some t -> Json.String t);
          ( "columns",
            Json.List
              (List.map
                 (fun (name, align) ->
                   Json.Obj [ ("name", Json.String name); ("align", align_to_json align) ])
                 columns) );
          ( "rows",
            Json.List
              (List.map
                 (function
                   | Table.Separator -> Json.String "sep"
                   | Table.Cells cells ->
                       Json.Obj
                         [ ("cells", Json.List (List.map cell_to_json cells)) ])
                 rows) );
        ]
  | Series { label; points } ->
      Json.Obj
        [
          ("kind", Json.String "series");
          ("label", Json.String label);
          ( "points",
            Json.List
              (List.map
                 (fun (x, y) -> Json.Obj [ ("x", Json.String x); ("y", Json.Float y) ])
                 points) );
        ]
  | Scalar { text; values } ->
      Json.Obj
        [
          ("kind", Json.String "scalar");
          ("text", Json.String text);
          ("values", Json.Obj (List.map (fun (label, c) -> (label, cell_to_json c)) values));
        ]
  | Note s -> Json.Obj [ ("kind", Json.String "note"); ("text", Json.String s) ]
  | Paper_ref s -> Json.Obj [ ("kind", Json.String "paper_ref"); ("text", Json.String s) ]

let to_json r =
  Json.Obj
    [
      ("id", Json.String r.id);
      ("section", Json.String r.section);
      ("items", Json.List (List.map item_to_json r.items));
    ]

(* Parsing back.  Shapes are checked strictly enough that the QCheck
   round-trip property is meaningful, with readable errors for the CI
   validator. *)

let cell_of_json = function
  | Json.String s -> Table.Text s
  | j -> (
      let get conv name = Json.field conv "cell" name j in
      match get Json.to_str "kind" with
      | "int" -> Table.Int (get Json.to_int "value")
      | "float" ->
          let d = get Json.to_int "decimals" in
          Table.Float (d, get Json.to_float "value")
      | "pct" ->
          let d = get Json.to_int "decimals" in
          Table.Pct (d, get Json.to_float "value")
      | other -> Json.fail "unknown cell kind %S" other)

let column_of_json c =
  let name = Json.field Json.to_str "column" "name" c in
  match Json.field Json.to_str "column" "align" c with
  | "left" -> (name, Table.Left)
  | "right" -> (name, Table.Right)
  | _ -> Json.fail "column %s align: expected \"left\" or \"right\"" name

let row_of_json = function
  | Json.String "sep" -> Table.Separator
  | r -> Table.Cells (List.map cell_of_json (Json.field Json.to_list "row" "cells" r))

let item_of_json j =
  let kind = Json.field Json.to_str "item" "kind" j in
  let get conv name = Json.field conv kind name j in
  match kind with
  | "table" ->
      let title =
        match Json.member "title" j with
        | None | Some Json.Null -> None
        | Some _ -> Some (get Json.to_str "title")
      in
      let columns = List.map column_of_json (get Json.to_list "columns") in
      Table { title; columns; rows = List.map row_of_json (get Json.to_list "rows") }
  | "series" ->
      let label = get Json.to_str "label" in
      let point p =
        (Json.field Json.to_str "point" "x" p, Json.field Json.to_float "point" "y" p)
      in
      Series { label; points = List.map point (get Json.to_list "points") }
  | "scalar" ->
      let text = get Json.to_str "text" in
      let value (label, c) = (label, cell_of_json c) in
      Scalar { text; values = List.map value (get Json.to_obj "values") }
  | "note" -> Note (get Json.to_str "text")
  | "paper_ref" -> Paper_ref (get Json.to_str "text")
  | other -> Json.fail "unknown item kind %S" other

let of_json j =
  Json.decode (fun () ->
      let id = Json.field Json.to_str "report" "id" j in
      let section = Json.field Json.to_str "report" "section" j in
      { id; section; items = List.map item_of_json (Json.field Json.to_list "report" "items" j) })

(* ------------------------------------------------------------------ *)
(* CSV                                                                *)
(* ------------------------------------------------------------------ *)

let csv_field s =
  if
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

(* Numbers go out bare, at their decimals, so a spreadsheet can sum them. *)
let csv_cell = function
  | Table.Int n -> string_of_int n
  | Table.Float (decimals, x) | Table.Pct (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Table.Text s -> csv_field s

let csv_line fields = String.concat "," fields ^ "\n"

let csv_of_table columns rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (csv_line (List.map (fun (header, _) -> csv_field header) columns));
  List.iter
    (function
      | Table.Separator -> ()
      | Table.Cells cells -> Buffer.add_string buf (csv_line (List.map csv_cell cells)))
    rows;
  Buffer.contents buf

let item_csv = function
  | Table { title; columns; rows } ->
      (match title with None -> "" | Some t -> "# " ^ t ^ "\n") ^ csv_of_table columns rows
  | Series { label; points } ->
      "# series: " ^ label ^ "\n"
      ^ csv_line [ "label"; "value" ]
      ^ String.concat ""
          (List.map (fun (x, y) -> csv_line [ csv_field x; Json.float_repr y ]) points)
  | Scalar { values; _ } ->
      String.concat ""
        (List.map (fun (label, c) -> csv_line [ "scalar"; csv_field label; csv_cell c ]) values)
  | Note s -> "# " ^ s ^ "\n"
  | Paper_ref s -> "# [paper] " ^ s ^ "\n"

let render_csv r =
  (* A single bare table renders with no decoration, so table-shaped
     outputs (the sweep) stay plain machine-readable CSV.  Richer reports
     get comment headers and blank-line-separated item blocks. *)
  match r.items with
  | [ (Table _ as t) ] -> item_csv t
  | items ->
      Printf.sprintf "# %s: %s\n" r.id r.section
      ^ String.concat "\n" (List.map item_csv items)

let render = function
  | Text -> render_text
  | Json -> fun r -> Json.to_string (to_json r) ^ "\n"
  | Csv -> render_csv

let format_of_string s =
  match String.lowercase_ascii s with
  | "text" -> Ok Text
  | "json" -> Ok Json
  | "csv" -> Ok Csv
  | other -> Error (Printf.sprintf "unknown format %S (expected text, json or csv)" other)

let format_to_string = function Text -> "text" | Json -> "json" | Csv -> "csv"

let extension = function Text -> "txt" | Json -> "json" | Csv -> "csv"
