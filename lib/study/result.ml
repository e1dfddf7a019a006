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

(* Parsing back.  Shapes are validated strictly enough that the QCheck
   round-trip property is meaningful, with readable errors for the CI
   validator. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_string what j =
  match Json.to_str j with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: expected a string" what)

let as_float what j =
  match j with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "%s: expected a number" what)

let as_list what j =
  match Json.to_list j with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "%s: expected a list" what)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let as_int what j =
  match Json.to_int j with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer" what)

let cell_of_json = function
  | Json.String s -> Ok (Table.Text s)
  | j -> (
      let* kind = field "kind" j in
      let* kind = as_string "cell kind" kind in
      let* value = field "value" j in
      let decimals () =
        let* d = field "decimals" j in
        as_int "cell decimals" d
      in
      match kind with
      | "int" ->
          let* n = as_int "int cell" value in
          Ok (Table.Int n)
      | "float" ->
          let* d = decimals () in
          let* x = as_float "float cell" value in
          Ok (Table.Float (d, x))
      | "pct" ->
          let* d = decimals () in
          let* x = as_float "pct cell" value in
          Ok (Table.Pct (d, x))
      | other -> Error (Printf.sprintf "unknown cell kind %S" other))

let align_of_json = function
  | Json.String "left" -> Ok Table.Left
  | Json.String "right" -> Ok Table.Right
  | _ -> Error "column align: expected \"left\" or \"right\""

let item_of_json j =
  let* kind = field "kind" j in
  let* kind = as_string "item kind" kind in
  match kind with
  | "table" ->
      let* title =
        match Json.member "title" j with
        | None | Some Json.Null -> Ok None
        | Some t ->
            let* s = as_string "table title" t in
            Ok (Some s)
      in
      let* columns = field "columns" j in
      let* columns = as_list "table columns" columns in
      let* columns =
        map_result
          (fun c ->
            let* name = field "name" c in
            let* name = as_string "column name" name in
            let* align = field "align" c in
            let* align = align_of_json align in
            Ok (name, align))
          columns
      in
      let* rows = field "rows" j in
      let* rows = as_list "table rows" rows in
      let* rows =
        map_result
          (fun r ->
            match r with
            | Json.String "sep" -> Ok Table.Separator
            | _ ->
                let* cells = field "cells" r in
                let* cells = as_list "row cells" cells in
                let* cells = map_result cell_of_json cells in
                Ok (Table.Cells cells))
          rows
      in
      Ok (Table { title; columns; rows })
  | "series" ->
      let* label = field "label" j in
      let* label = as_string "series label" label in
      let* points = field "points" j in
      let* points = as_list "series points" points in
      let* points =
        map_result
          (fun p ->
            let* x = field "x" p in
            let* x = as_string "point x" x in
            let* y = field "y" p in
            let* y = as_float "point y" y in
            Ok (x, y))
          points
      in
      Ok (Series { label; points })
  | "scalar" ->
      let* text = field "text" j in
      let* text = as_string "scalar text" text in
      let* values =
        match Json.member "values" j with
        | Some (Json.Obj kvs) ->
            map_result
              (fun (label, c) ->
                let* c = cell_of_json c in
                Ok (label, c))
              kvs
        | _ -> Error "scalar values: expected an object"
      in
      Ok (Scalar { text; values })
  | "note" ->
      let* text = field "text" j in
      let* text = as_string "note text" text in
      Ok (Note text)
  | "paper_ref" ->
      let* text = field "text" j in
      let* text = as_string "paper_ref text" text in
      Ok (Paper_ref text)
  | other -> Error (Printf.sprintf "unknown item kind %S" other)

let of_json j =
  let* id = field "id" j in
  let* id = as_string "report id" id in
  let* section = field "section" j in
  let* section = as_string "report section" section in
  let* items = field "items" j in
  let* items = as_list "report items" items in
  let* items = map_result item_of_json items in
  Ok { id; section; items }

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
