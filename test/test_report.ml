open Helpers

(* Properties of the structured report layer: the JSON codec round-trips
   (both the generic Json printer/parser and the Result report codec),
   the CSV renderer honours its quoting rules, and the run Manifest
   upholds the invariants the `icache-opt validate` subcommand checks. *)

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Finite floats only: NaN is not equal to itself and infinities have no
   JSON literal, so the codec contract excludes them. *)
let finite_float =
  QCheck.map
    (fun (mantissa, exp) -> mantissa *. (10.0 ** float_of_int exp))
    QCheck.(pair (float_bound_inclusive 1.0) (int_range (-6) 6))

let string_gen =
  (* Printable strings plus the CSV-hostile characters. *)
  QCheck.(string_gen_of_size Gen.(int_bound 12) Gen.(oneof [
    char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
    oneofl [ ' '; ','; '"'; '\n'; '%'; '-'; '_'; '.'; '|' ] ]))

let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
            map (fun f -> Json.Float f) (QCheck.gen finite_float);
            map (fun s -> Json.String s) (QCheck.gen string_gen);
          ]
      in
      if n <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (QCheck.gen string_gen) (self (n / 2)))) );
          ])

let json_arb = QCheck.make ~print:(fun j -> Json.to_string j) json_gen

(* All four cell kinds. *)
let cell_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun n -> Table.Int n) (int_range (-1_000_000) 1_000_000);
      map2 (fun d x -> Table.Float (d, x)) (int_bound 6) (QCheck.gen finite_float);
      map2 (fun d x -> Table.Pct (d, x)) (int_bound 6) (QCheck.gen finite_float);
      map (fun s -> Table.Text s) (QCheck.gen string_gen);
    ]

let item_gen =
  let open QCheck.Gen in
  let cells = list_size (int_bound 4) cell_gen in
  oneof
    [
      map (fun s -> Result.Note s) (QCheck.gen string_gen);
      map (fun s -> Result.Paper_ref s) (QCheck.gen string_gen);
      map2
        (fun text values -> Result.Scalar { text; values })
        (QCheck.gen string_gen)
        (list_size (int_bound 3) (pair (QCheck.gen string_gen) cell_gen));
      map2
        (fun label points -> Result.Series { label; points })
        (QCheck.gen string_gen)
        (list_size (int_bound 5)
           (pair (QCheck.gen string_gen) (QCheck.gen finite_float)));
      map3
        (fun title columns rows ->
          Result.Table { title; columns; rows })
        (opt (QCheck.gen string_gen))
        (list_size (int_bound 4)
           (pair (QCheck.gen string_gen) (oneofl [ Table.Left; Table.Right ])))
        (list_size (int_bound 4)
           (frequency
              [
                (4, map (fun c -> Table.Cells c) cells);
                (1, return Table.Separator);
              ]));
    ]

let report_gen =
  let open QCheck.Gen in
  map3
    (fun id section items -> Result.report ~id ~section items)
    (QCheck.gen string_gen) (QCheck.gen string_gen)
    (list_size (int_bound 6) item_gen)

let report_arb =
  QCheck.make ~print:(fun r -> Json.to_string (Result.to_json r)) report_gen

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Json.of_string inverts to_string" json_arb
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_json_roundtrip_minified =
  QCheck.Test.make ~count:300 ~name:"Json round-trip survives minify" json_arb
    (fun j ->
      match Json.of_string (Json.to_string ~minify:true j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_report_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Result.of_json inverts to_json" report_arb
    (fun r ->
      match Result.of_json (Result.to_json r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_report_roundtrip_via_text =
  QCheck.Test.make ~count:300 ~name:"report JSON survives print/re-parse"
    report_arb (fun r ->
      let text = Result.render Result.Json r in
      match Json.of_string text with
      | Ok j -> (
          match Result.of_json j with
          | Ok r' -> r' = r
          | Error e -> QCheck.Test.fail_reportf "of_json: %s" e)
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e)

(* ------------------------------------------------------------------ *)
(* Renderer unit checks                                               *)
(* ------------------------------------------------------------------ *)

let test_text_rendering () =
  let r =
    Result.report ~id:"x" ~section:"demo section"
      [ Result.note "hello %d" 42; Result.paper "paper says 3" ]
  in
  let expect =
    Result.section_banner "demo section" ^ "  hello 42\n  [paper] paper says 3\n"
  in
  check_string "banner + note + paper" expect (Result.render_text r)

let test_scalar_text_is_verbatim () =
  let r =
    Result.report ~id:"x" ~section:"s"
      [ Result.scalar ~text:"peak share: 12.5%" [ ("peak", Table.Pct (1, 12.5)) ] ]
  in
  check_bool "scalar renders its text line" true
    (String.ends_with ~suffix:"  peak share: 12.5%\n" (Result.render_text r))

let test_csv_bare_table_undecorated () =
  let r =
    Result.report ~id:"sweep" ~section:"whatever"
      [
        Result.Table
          {
            title = None;
            columns = [ ("a", Table.Left); ("b", Table.Right) ];
            rows =
              [
                Table.Cells [ Table.Text "1"; Table.Text "2" ];
                Table.Cells [ Table.Text "3"; Table.Text "4" ];
              ];
          };
      ]
  in
  check_string "bare single table renders as plain CSV" "a,b\n1,2\n3,4\n"
    (Result.render Result.Csv r)

let test_csv_quoting () =
  let r =
    Result.report ~id:"q" ~section:"s"
      [
        Result.Table
          {
            title = None;
            columns = [ ("h", Table.Left) ];
            rows = [ Table.Cells [ Table.Text "a,b" ]; Table.Cells [ Table.Text "say \"hi\"" ] ];
          };
      ]
  in
  check_string "commas and quotes get quoted" "h\n\"a,b\"\n\"say \"\"hi\"\"\"\n"
    (Result.render Result.Csv r)

let typed_table =
  Result.Table
    {
      title = None;
      columns = [ ("misses", Table.Right); ("rate", Table.Right); ("share", Table.Right) ];
      rows =
        [
          Table.Cells [ Table.Int 1234; Table.Float (3, 0.5309); Table.Pct (2, 0.5349) ];
          Table.Separator;
          Table.Cells [ Table.Int (-7); Table.Float (1, 2.0); Table.Text "n/a" ];
        ];
    }

let test_csv_numbers_bare () =
  (* No thousands separator and no %: a spreadsheet can sum the column. *)
  check_string "numbers at their decimals" "misses,rate,share\n1234,0.531,0.53\n-7,2.0,n/a\n"
    (Result.render Result.Csv (Result.report ~id:"n" ~section:"s" [ typed_table ]));
  check_string "a scalar value too" "# n: s\nscalar,peak,12.5\n"
    (Result.render Result.Csv
       (Result.report ~id:"n" ~section:"s"
          [ Result.scalar ~text:"peak: 12.5%" [ ("peak", Table.Pct (1, 12.5)) ] ]))

let test_text_formats_cells () =
  check_string "ints with separators, decimals as given, % on shares"
    (Result.section_banner "s"
    ^ "+--------+-------+-------+\n\
       | misses |  rate | share |\n\
       +--------+-------+-------+\n\
       |  1,234 | 0.531 | 0.53% |\n\
       +--------+-------+-------+\n\
       |     -7 |   2.0 |   n/a |\n\
       +--------+-------+-------+\n")
    (Result.render_text (Result.report ~id:"n" ~section:"s" [ typed_table ]))

let test_json_numbers () =
  let j = Result.to_json (Result.report ~id:"n" ~section:"s" [ typed_table ]) in
  check_string "kind, value and decimals; text stays a string"
    {|{"id":"n","section":"s","items":[{"kind":"table","title":null,"columns":[{"name":"misses","align":"right"},{"name":"rate","align":"right"},{"name":"share","align":"right"}],"rows":[{"cells":[{"kind":"int","value":1234},{"kind":"float","value":0.5309,"decimals":3},{"kind":"pct","value":0.5349,"decimals":2}]},"sep",{"cells":[{"kind":"int","value":-7},{"kind":"float","value":2.0,"decimals":1},"n/a"]}]}]}|}
    (Json.to_string ~minify:true j)

let test_column_reader () =
  let r =
    Result.report ~id:"n" ~section:"s"
      [
        typed_table;
        Result.note "no values here";
        Result.scalar ~text:"misses: 9" [ ("misses", Table.Int 9); ("other", Table.Text "x") ];
      ]
  in
  check_bool "table cells, separators skipped, then scalar values" true
    (Result.column r "misses" = [ Table.Int 1234; Table.Int (-7); Table.Int 9 ]);
  check_bool "text cells too" true
    (Result.column r "share" = [ Table.Pct (2, 0.5349); Table.Text "n/a" ]);
  check_bool "an unknown name reads nothing" true (Result.column r "absent" = [])

(* Tokens the number scanner takes but that spell no number: each is an
   error at the byte where the token starts, not an exception. *)
let test_json_malformed_numbers () =
  List.iter
    (fun (text, at, tok) ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "%S parsed" text
      | Error e ->
          let want = Printf.sprintf "JSON parse error at byte %d: malformed number %S" at tok in
          check_string text want e)
    [ ("1e", 0, "1e"); (".", 0, "."); ("-.", 0, "-."); ("1.5e+", 0, "1.5e+"); ("[1e]", 1, "1e") ]

(* JSON's number grammar, not OCaml's: no bare or trailing point, no
   leading zero.  A \u escape takes exactly four hex digits, and its
   error is at the first byte that is not one. *)
let test_json_strict_grammar () =
  let rejects text want =
    match Json.of_string text with
    | Ok _ -> Alcotest.failf "%S parsed" text
    | Error e -> check_string text ("JSON parse error at " ^ want) e
  in
  List.iter
    (fun (text, at, tok) -> rejects text (Printf.sprintf "byte %d: malformed number %S" at tok))
    [
      (".5", 0, ".5");
      ("-.5", 0, "-.5");
      ("1.", 0, "1.");
      ("1.e5", 0, "1.e5");
      ("01", 0, "01");
      ("-01", 0, "-01");
      ("[0, 01]", 4, "01");
    ];
  rejects {|"\u1___"|} "byte 4: bad \\u escape";
  rejects {|"\u12_4"|} "byte 5: bad \\u escape";
  List.iter
    (fun (text, want) ->
      match Json.of_string text with
      | Ok j -> check_bool text true (j = want)
      | Error e -> Alcotest.failf "%S: %s" text e)
    [
      ("0", Json.Int 0);
      ("-0", Json.Int 0);
      ("0.5", Json.Float 0.5);
      ("1e5", Json.Float 1e5);
      ("1E+5", Json.Float 1e5);
      ("-1.5e-3", Json.Float (-1.5e-3));
      ({|"\u00e9\u001F"|}, Json.String "\xc3\xa9\x1f");
    ]

(* Everything the emitter writes is in the strict grammar and parses back
   equal: any finite float, any int, any byte in a string. *)
let wide_json_arb =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (map (fun f -> if Float.is_finite f then f else 0.0) float);
        map (fun s -> Json.String s) (string_size ~gen:char (int_bound 8));
      ]
  in
  QCheck.make ~print:(fun j -> Json.to_string j)
    (map (fun l -> Json.List l) (list_size (int_bound 6) scalar))

let prop_json_wide_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json round-trip: any int, finite float and byte"
    wide_json_arb (fun j ->
      List.for_all
        (fun minify ->
          match Json.of_string (Json.to_string ~minify j) with
          | Ok j' -> j' = j
          | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)
        [ false; true ])

let test_format_of_string () =
  check_bool "text" true (Result.format_of_string "text" = Ok Result.Text);
  check_bool "JSON case-insensitive" true
    (Result.format_of_string "JSON" = Ok Result.Json);
  check_bool "csv" true (Result.format_of_string "csv" = Ok Result.Csv);
  check_bool "unknown rejected" true
    (match Result.format_of_string "yaml" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Manifest invariants                                                *)
(* ------------------------------------------------------------------ *)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "manifest: missing %s" name

let test_manifest_invariants () =
  (* Build a real context so the trace/levels/simulate stages and the
     Sim_cache counters are populated, then check exactly what
     `icache-opt validate` checks. *)
  let ctx = Lazy.force small_context in
  ignore
    (Runner.simulate ctx
       ~layouts:(Levels.build ctx Levels.Base)
       ~system:(fun () -> System.unified (Config.make ~size_kb:8 ()))
       ());
  let m = Manifest.to_json () in
  check_bool "schema_version 5" true (Json.to_int (member "schema_version" m) = Some 5);
  let stages =
    match member "stages" m with
    | Json.List l -> l
    | _ -> Alcotest.fail "stages is not a list"
  in
  check_bool "at least trace/levels/simulate stages" true
    (List.length stages >= 3);
  let stage_names =
    List.filter_map (fun s -> Json.to_str (member "name" s)) stages
  in
  List.iter
    (fun n ->
      check_bool (n ^ " stage present") true (List.mem n stage_names))
    [ "trace_capture"; "levels_build"; "simulate" ];
  List.iter
    (fun s ->
      let seconds = Json.to_float (member "seconds" s) in
      let count = Json.to_int (member "count" s) in
      check_bool "stage seconds >= 0" true
        (match seconds with Some x -> x >= 0.0 | None -> false);
      check_bool "stage count >= 1" true
        (match count with Some c -> c >= 1 | None -> false))
    stages;
  (* Schema v5: cache counts live only in the metrics snapshot, one
     hits/misses/lookups trio per Memo. *)
  let counters = member "counters" (member "metrics" m) in
  let trio prefix =
    let geti suffix =
      match Option.bind (Json.member (prefix ^ suffix) counters) Json.to_int with
      | Some v -> v
      | None -> Alcotest.failf "metrics counter %s%s missing" prefix suffix
    in
    check_int (prefix ^ ": hits + misses = lookups") (geti ".lookups")
      (geti ".hits" + geti ".misses")
  in
  trio "sim_cache";
  check_bool "validate accepts it" true (Stdlib.Result.is_ok (Validate.json m));
  List.iter (fun (name, _) -> trio ("layout_cache." ^ name)) (Layout_cache.stage_stats ());
  check_bool "exactly run, stages, batch and metrics" true
    (match m with
    | Json.Obj kvs ->
        List.map fst kvs = [ "schema_version"; "run"; "stages"; "batch"; "metrics" ]
    | _ -> false)

let test_manifest_minor_words () =
  Manifest.set_run (Lazy.force small_context) ~jobs:1;
  let manifest_words () =
    match Json.to_float (member "minor_words" (member "gc" (member "run" (Manifest.to_json ())))) with
    | Some words -> words
    | None -> Alcotest.fail "run.gc.minor_words is not a number"
  in
  (* Start from an empty minor heap, so the 1000 cells below stay in it. *)
  Gc.minor ();
  let before = manifest_words () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (List.init 1000 Fun.id));
  let allocated = Gc.minor_words () -. w0 in
  let counted = manifest_words () -. before in
  check_bool
    (Printf.sprintf "the manifest counts %.0f of %.0f words still in the minor heap" counted
       allocated)
    true (counted >= allocated)

let test_manifest_experiment_timing () =
  let ctx = Lazy.force small_context in
  let e = Experiments.find "fig9" in
  ignore (Experiments.compute e ctx);
  let m = Manifest.to_json () in
  let stages =
    match member "stages" m with
    | Json.List l -> l
    | _ -> Alcotest.fail "stages is not a list"
  in
  match List.find_opt (fun s -> Json.to_str (member "name" s) = Some "experiment.fig9") stages with
  | None -> Alcotest.fail "no experiment.fig9 stage in the manifest"
  | Some s ->
      check_bool "experiment seconds >= 0" true
        (match Json.to_float (member "seconds" s) with
        | Some x -> x >= 0.0
        | None -> false)

let () =
  Alcotest.run "report"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_json_roundtrip;
            prop_json_roundtrip_minified;
            prop_json_wide_roundtrip;
            prop_report_roundtrip;
            prop_report_roundtrip_via_text;
          ] );
      ( "renderers",
        [
          case "text banner/note/paper" test_text_rendering;
          case "scalar text verbatim" test_scalar_text_is_verbatim;
          case "csv bare table" test_csv_bare_table_undecorated;
          case "csv quoting" test_csv_quoting;
          case "csv numbers bare" test_csv_numbers_bare;
          case "text formats typed cells" test_text_formats_cells;
          case "json numeric cells" test_json_numbers;
          case "json malformed numbers" test_json_malformed_numbers;
          case "json strict grammar" test_json_strict_grammar;
          case "column reader" test_column_reader;
          case "format_of_string" test_format_of_string;
        ] );
      ( "manifest",
        [
          case "stage and sim-cache invariants" test_manifest_invariants;
          case "per-experiment timing" test_manifest_experiment_timing;
          case "minor words include the minor heap" test_manifest_minor_words;
        ] );
    ]
