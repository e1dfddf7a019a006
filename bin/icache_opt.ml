(* icache-opt: command-line driver for the reproduction pipeline.

   Subcommands:
     list         - list the reproduced tables and figures
     repro        - run experiments (all, or by id); --format text|json|csv
     simulate     - simulate one workload/layout/cache combination
     characterize - print the kernel and workload characterization
     validate     - check a repro JSON document (reports + manifest) *)

open Cmdliner

(* A budget below one word is one error line and exit code 1, checked as
   the arguments are read, before any output is opened. *)
let words_arg =
  let doc = "Instruction words to trace per workload (at least 1)." in
  let check words =
    if words < 1 then begin
      Printf.eprintf "--words must be at least 1 (got %d)\n" words;
      exit 1
    end;
    words
  in
  Term.(const check $ Arg.(value & opt int 2_000_000 & info [ "words" ] ~docv:"N" ~doc))

let seed_arg =
  let doc = "Engine seed (the kernel itself is always built from the spec seed)." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let small_arg =
  let doc = "Use the scaled-down test kernel instead of the calibrated one." in
  Arg.(value & flag & info [ "small" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for trace capture and simulation (default: \
     $(b,ICACHE_JOBS) or the core count).  Results are identical for every \
     value; only wall-clock changes."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Both converters funnel every CLI spelling through the library's single
   parser, so the accepted names cannot drift between subcommands. *)
let level_conv =
  let parse s =
    match Levels.of_string s with Ok l -> Ok l | Error e -> Error (`Msg e)
  in
  let print ppf l = Format.pp_print_string ppf (Levels.to_string l) in
  Arg.conv ~docv:"LEVEL" (parse, print)

let format_conv =
  let parse s =
    match Result.format_of_string s with Ok f -> Ok f | Error e -> Error (`Msg e)
  in
  let print ppf f = Format.pp_print_string ppf (Result.format_to_string f) in
  Arg.conv ~docv:"FORMAT" (parse, print)

(* The four workloads of Workload.standard_programs, in paper order;
   checked before any context is built. *)
let workload_arg =
  let doc = "Workload index 0-3 (TRFD_4, TRFD+Make, ARC2D+Fsck, Shell)." in
  Arg.(value & opt int 0 & info [ "w"; "workload" ] ~docv:"I" ~doc)

let check_workload w =
  if w < 0 || w > 3 then begin
    prerr_endline "workload index out of range";
    exit 1
  end

let trace_arg =
  let doc =
    "Record a span timeline of the run and write it to $(docv) as Chrome \
     trace-event JSON (one track per worker domain; open in Perfetto or \
     chrome://tracing, or summarize with $(b,icache-opt trace-summary))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* "cannot VERB FILE: reason" from a Sys_error message about FILE. *)
let cannot verb file e =
  let prefix = file ^ ": " and n = String.length file + 2 in
  let reason = if String.starts_with ~prefix e then String.sub e n (String.length e - n) else e in
  Printf.sprintf "cannot %s %s: %s" verb file reason

(* A whole input file, or stdin for '-'; a file that cannot be read is
   one error line, "cannot read FILE: reason". *)
let read_input file =
  if file = "-" then Ok (In_channel.input_all stdin)
  else
    try Ok (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e -> Error (cannot "read" file e)

let read_input_or_exit file =
  match read_input file with Ok s -> s | Error e -> prerr_endline e; exit 1

(* Every output path is checked before any context is built, so a long
   run never ends on a path it cannot write.  The check opens the file
   for writing without truncating it (creating it if need be); a failure
   is one error line, "cannot write FILE: reason", and exit code 1. *)
let check_output file =
  if file <> "-" then
    try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
    with Sys_error e ->
      prerr_endline (cannot "write" file e);
      exit 1

(* [repro --out DIR] is created up front and checked through the
   manifest it will hold. *)
let check_out_dir dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  check_output (Filename.concat dir "manifest.json")

let make_context ~small ~words ~seed ~jobs =
  Option.iter Parallel.set_jobs jobs;
  let spec = if small then Spec.small else Spec.default in
  let ctx = Context.create ~spec ~words ~seed () in
  Manifest.set_run ctx ~jobs:(Parallel.default_jobs ());
  ctx

let write_manifest path =
  Out.with_file path (fun oc ->
      output_string oc (Json.to_string (Manifest.to_json ()));
      output_char oc '\n')

(* The trace document is the Chrome trace plus the metrics snapshot under
   an extra key viewers ignore, so one artifact carries both the timeline
   and the histogram/counter summary trace-summary prints. *)
let start_trace trace =
  Option.iter check_output trace;
  if trace <> None then Trace_log.set_enabled true

let finish_trace trace =
  Option.iter
    (fun path ->
      Out.with_file path (fun oc ->
          (* Minified: traces carry thousands of events and viewers never
             show the raw text. *)
          output_string oc
            (Json.to_string ~minify:true
               (Trace_log.to_chrome
                  ~extra:[ ("metrics", Metrics_registry.to_json ()) ]
                  ()));
          output_char oc '\n');
      (* stderr: stdout may be a piped JSON report stream. *)
      if path <> "-" then
        Printf.eprintf "wrote %s (%d spans; open in https://ui.perfetto.dev)\n%!"
          path (Trace_log.span_count ()))
    trace

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "  %-8s %s\n" e.Experiments.id e.Experiments.title)
      Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the reproduced tables and figures")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* repro                                                              *)
(* ------------------------------------------------------------------ *)

let repro_cmd =
  let ids_arg =
    let doc = "Experiment ids (e.g. table1 fig12); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let format_arg =
    let doc = "Output format: text (the classic transcript), json or csv." in
    Arg.(value & opt format_conv Result.Text & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc =
      "Write one file per experiment (ID.txt/ID.json/ID.csv) plus \
       manifest.json into this directory instead of printing to stdout."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run words seed small jobs format out trace ids =
    let exps =
      match ids with
      | [] -> Experiments.all
      | ids ->
          List.map
            (fun id ->
              match Experiments.find id with
              | e -> e
              | exception Not_found ->
                  Printf.eprintf "unknown experiment %S; try 'icache-opt list'\n" id;
                  exit 1)
            ids
    in
    Option.iter check_out_dir out;
    start_trace trace;
    let ctx = make_context ~small ~words ~seed ~jobs in
    (* Every selected experiment in one fan-out; reports come back, and are
       emitted, in registry order. *)
    let reports = Experiments.compute_all exps ctx in
    (match out with
    | Some dir ->
        List.iter
          (fun r ->
            let path =
              Filename.concat dir (r.Result.id ^ "." ^ Result.extension format)
            in
            Out.with_file path (fun oc -> output_string oc (Result.render format r));
            Printf.printf "wrote %s\n%!" path)
          reports;
        let mpath = Filename.concat dir "manifest.json" in
        write_manifest mpath;
        Printf.printf "wrote %s\n%!" mpath
    | None -> (
        match format with
        | Result.Text -> List.iter Result.print reports
        | Result.Json ->
            (* One document: every report plus the run manifest, so a
               single pipe carries both the results and the provenance. *)
            let doc =
              Json.Obj
                [
                  ("reports", Json.List (List.map Result.to_json reports));
                  ("manifest", Manifest.to_json ());
                ]
            in
            print_string (Json.to_string doc);
            print_newline ()
        | Result.Csv -> List.iter (fun r -> print_string (Result.render Result.Csv r)) reports));
    finish_trace trace
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ format_arg
      $ out_arg $ trace_arg $ ids_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)
(* ------------------------------------------------------------------ *)

(* Checked before any context is built: a bad geometry is one line on
   stderr and exit 1. *)
let cache_config size_kb assoc line =
  try Config.v ~size:(size_kb * 1024) ~assoc ~line
  with Invalid_argument e ->
    Printf.eprintf "bad cache geometry %d KB, %d-way, %d B lines (%s)\n" size_kb assoc line e;
    exit 1

let simulate_cmd =
  let level_arg =
    let doc = "Layout level: base, ch, opts, optl or opta." in
    Arg.(value & opt level_conv Levels.OptS & info [ "l"; "level" ] ~docv:"LEVEL" ~doc)
  in
  let size_arg =
    let doc = "Cache size in KB (power of two)." in
    Arg.(value & opt int 8 & info [ "size-kb" ] ~docv:"KB" ~doc)
  in
  let assoc_arg =
    let doc = "Associativity (power of two; 1 = direct-mapped)." in
    Arg.(value & opt int 1 & info [ "assoc" ] ~docv:"WAYS" ~doc)
  in
  let line_arg =
    let doc = "Line size in bytes (power of two)." in
    Arg.(value & opt int 32 & info [ "line" ] ~docv:"BYTES" ~doc)
  in
  let run words seed small jobs w level size_kb assoc line =
    let config = cache_config size_kb assoc line in
    check_workload w;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let layouts = Levels.build ctx level in
    let runs = (Runner.simulate_batch ctx ~members:[| (layouts, config) |] ()).(0) in
    let c = runs.(w).Runner.counters in
    Printf.printf "workload %s, layout %s, cache %s\n"
      (Context.workload_names ctx).(w) (Levels.to_string level)
      (Config.to_string config);
    Printf.printf "  references  %12d words\n" (Counters.refs c);
    Printf.printf "  misses      %12d (%.3f%%)\n" (Counters.misses c)
      (100.0 *. Counters.miss_rate c);
    Printf.printf "    OS:  cold %d, self %d, cross %d\n" c.Counters.os_cold
      c.Counters.os_self c.Counters.os_cross;
    Printf.printf "    app: cold %d, self %d, cross %d\n" c.Counters.app_cold
      c.Counters.app_self c.Counters.app_cross
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one workload / layout / cache combination")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ workload_arg
      $ level_arg $ size_arg $ assoc_arg $ line_arg)

(* ------------------------------------------------------------------ *)
(* layout                                                             *)
(* ------------------------------------------------------------------ *)

let layout_cmd =
  let out_arg =
    let doc = "Write the layout map here ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let level_arg =
    let doc = "Layout to emit: base, ch, opts, optl or opta." in
    Arg.(value & opt level_conv Levels.OptS & info [ "l"; "level" ] ~docv:"LEVEL" ~doc)
  in
  let run words seed small jobs level out =
    check_output out;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    (* Every workload of a level shares one OS placement (OptA differs
       from OptS only on the application images). *)
    let map = (Levels.build ctx level).(0).Program_layout.os_map in
    Out.with_file out (fun oc -> Layout_file.write_channel oc ~graph:g map);
    if out <> "-" then
      Printf.printf "wrote %s (%d blocks, extent %d bytes)\n" out
        (Address_map.placed_count map) (Address_map.extent map)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Emit a kernel code placement as a linker-map-like file")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ level_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let routine_arg =
    let doc = "Routine name to draw (e.g. clock_intr)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ROUTINE" ~doc)
  in
  let out_arg =
    let doc = "Output .dot file ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs name out =
    check_output out;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    let found = ref None in
    Graph.iter_routines g (fun r ->
        if r.Routine.name = name then found := Some r);
    match !found with
    | None ->
        Printf.eprintf "no routine named %S\n" name;
        exit 1
    | Some r ->
        let s =
          Dot.routine_to_string g
            ~weights:ctx.Context.avg_os_profile.Profile.block
            ~loops:(Context.os_loops ctx) r
        in
        Out.with_file out (fun oc -> output_string oc s);
        if out <> "-" then Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export one kernel routine's flow graph as Graphviz dot")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ routine_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                              *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let list_arg name default doc =
    Arg.(value & opt (list int) default & info [ name ] ~docv:"N,..." ~doc)
  in
  let sizes_arg = list_arg "sizes" [ 4; 8; 16; 32 ] "Cache sizes in KB." in
  let assocs_arg = list_arg "assocs" [ 1 ] "Associativities." in
  let lines_arg = list_arg "lines" [ 32 ] "Line sizes in bytes." in
  let levels_arg =
    let doc = "Layout levels (base, ch, opts, optl, opta)." in
    Arg.(
      value
      & opt (list level_conv) [ Levels.Base; Levels.OptS ]
      & info [ "levels" ] ~docv:"L,..." ~doc)
  in
  let format_arg =
    let doc = "Output format: csv (default), json or text." in
    Arg.(value & opt format_conv Result.Csv & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc = "Output file ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs sizes assocs lines levels format out trace =
    let geometries =
      List.concat_map
        (fun size_kb ->
          List.concat_map
            (fun assoc ->
              List.map (fun line -> (size_kb, assoc, line, cache_config size_kb assoc line)) lines)
            assocs)
        sizes
    in
    check_output out;
    start_trace trace;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let columns =
      List.map
        (fun h -> (h, Table.Left))
        [
          "level"; "size_kb"; "assoc"; "line"; "workload"; "refs"; "misses";
          "miss_rate"; "os_self"; "os_cross"; "app_self"; "app_cross";
        ]
    in
    (* The whole cross-product is one batch: every geometry of a level
       shares that level's single replay pass per workload, so the trace
       decode cost is paid (levels x workloads) times, not
       (levels x sizes x assocs x lines x workloads) times. *)
    let specs =
      List.concat_map
        (fun level ->
          let layouts = Levels.build ctx level in
          List.map
            (fun (size_kb, assoc, line, config) -> (level, size_kb, assoc, line, (layouts, config)))
            geometries)
        levels
    in
    let batch =
      Runner.simulate_batch ctx
        ~members:(Array.of_list (List.map (fun (_, _, _, _, m) -> m) specs))
        ()
    in
    let rows = ref [] in
    List.iteri
      (fun m (level, size_kb, assoc, line, _member) ->
        Array.iteri
          (fun i (r : Runner.run) ->
            let c = r.Runner.counters in
            rows :=
              Table.Cells
                (List.map
                   (fun s -> Table.Text s)
                   [
                     Levels.to_string level;
                     string_of_int size_kb;
                     string_of_int assoc;
                     string_of_int line;
                     (Context.workload_names ctx).(i);
                     string_of_int (Counters.refs c);
                     string_of_int (Counters.misses c);
                     Printf.sprintf "%.6f" (Counters.miss_rate c);
                     string_of_int c.Counters.os_self;
                     string_of_int c.Counters.os_cross;
                     string_of_int c.Counters.app_self;
                     string_of_int c.Counters.app_cross;
                   ])
              :: !rows)
          batch.(m))
      specs;
    let report =
      Result.report ~id:"sweep" ~section:"cache/layout sweep"
        [ Result.Table { title = None; columns; rows = List.rev !rows } ]
    in
    Out.with_file out (fun oc -> output_string oc (Result.render format report));
    if out <> "-" then Printf.printf "wrote %s\n" out;
    finish_trace trace
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Cross-product cache/layout sweep, one CSV row per cell")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ sizes_arg
      $ assocs_arg $ lines_arg $ levels_arg $ format_arg $ out_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let out_arg =
    let doc = "Write the averaged OS profile here ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs out =
    check_output out;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    let p = ctx.Context.avg_os_profile in
    Out.with_file out (fun oc -> Profile_file.write_channel oc ~graph:g p);
    if out <> "-" then
      Printf.printf "wrote %s (%d executed blocks, %.0f invocations)\n" out
        (Profile.executed_block_count p) p.Profile.invocations
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Trace the four workloads and emit the averaged OS profile")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let out_arg =
    let doc = "Binary trace output file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small w out =
    check_workload w;
    check_output out;
    let spec = if small then Spec.small else Spec.default in
    let pairs = Workload.standard_programs (Generator.generate spec) in
    let workload, program = pairs.(w) in
    let trace, stats = Engine.capture ~program ~workload ~words ~seed in
    Trace_file.save out trace;
    Printf.printf "wrote %s: %d events, %d instruction words (%s)\n" out
      (Trace.length trace) stats.Engine.total_words workload.Workload.name
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Capture one workload's instruction trace to a binary file")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ workload_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* characterize                                                       *)
(* ------------------------------------------------------------------ *)

let characterize_cmd =
  let run words seed small jobs =
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    Printf.printf "kernel: %d routines, %d blocks, %d bytes of code\n"
      (Graph.routine_count g) (Graph.block_count g) (Graph.code_bytes g);
    Array.iteri
      (fun i ((w : Workload.t), _) ->
        let p = ctx.Context.os_profiles.(i) in
        let s = ctx.Context.stats.(i) in
        Printf.printf "%-12s OS words %9d  invocations %6d  executed %6d bytes (%4.1f%%)\n"
          w.Workload.name s.Engine.os_words
          (Array.fold_left ( + ) 0 s.Engine.invocations)
          (Profile.executed_bytes p g)
          (Stats.pct (Profile.executed_bytes p g) (Graph.code_bytes g)))
      ctx.Context.pairs
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Summarize the kernel and the traced workloads")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* trace-summary                                                      *)
(* ------------------------------------------------------------------ *)

let trace_summary_cmd =
  let file_arg =
    let doc = "Chrome trace JSON written by --trace ('-' = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "How many spans to print (by total time)." in
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run file top =
    let fail msg =
      Printf.eprintf "trace-summary: %s\n" msg;
      exit 1
    in
    let ok = function Ok x -> x | Error e -> fail e in
    let doc = ok (Json.of_string (read_input_or_exit file)) in
    let events = ok (Trace_log.of_chrome doc) in
    (* name -> (count, total us, max us) *)
    let totals : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
    ok
      (Trace_log.fold_spans
         (fun () (b : Trace_log.event) dur ->
           let c, t, m =
             Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt totals b.Trace_log.name)
           in
           Hashtbl.replace totals b.Trace_log.name (c + 1, t +. dur, Float.max m dur))
         () events);
    let tracks =
      List.sort_uniq compare (List.map (fun (e : Trace_log.event) -> e.Trace_log.track) events)
    in
    let rows = Hashtbl.fold (fun n x acc -> (n, x) :: acc) totals [] in
    let rows =
      List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) rows
    in
    let span_total = List.fold_left (fun acc (_, (_, t, _)) -> acc +. t) 0.0 rows in
    Printf.printf "%d events, %d spans on %d track(s), %.2fs of span time\n\n"
      (List.length events)
      (List.fold_left (fun acc (_, (c, _, _)) -> acc + c) 0 rows)
      (List.length tracks) (span_total /. 1e6);
    Printf.printf "  %10s %8s %12s %12s  %s\n" "total s" "count" "mean ms" "max ms" "span";
    List.iteri
      (fun i (name, (count, total, max_us)) ->
        if i < top then
          Printf.printf "  %10.3f %8d %12.3f %12.3f  %s\n" (total /. 1e6) count
            (total /. float_of_int count /. 1e3)
            (max_us /. 1e3) name)
      rows;
    match Json.member "metrics" doc with
    | None -> ()
    | Some mx ->
        (match Json.member "counters" mx with
        | Some (Json.Obj kvs) when kvs <> [] ->
            Printf.printf "\ncounters:\n";
            List.iter
              (fun (n, v) ->
                match Json.to_int v with
                | Some i -> Printf.printf "  %-32s %12d\n" n i
                | None -> ())
              kvs
        | _ -> ());
        (match Json.member "histograms" mx with
        | Some (Json.Obj hs) when hs <> [] ->
            Printf.printf "\nhistograms:\n";
            Printf.printf "  %-32s %8s %12s %12s %12s %12s  %s\n" "" "count" "mean"
              "p50" "p90" "p99" "unit";
            List.iter
              (fun (n, h) ->
                let f field =
                  match Option.bind (Json.member field h) Json.to_float with
                  | Some x -> x
                  | None -> 0.0
                in
                let unit_ =
                  Option.value ~default:""
                    (Option.bind (Json.member "unit" h) Json.to_str)
                in
                let count =
                  match Option.bind (Json.member "count" h) Json.to_int with
                  | Some c -> c
                  | None -> 0
                in
                Printf.printf "  %-32s %8d %12.4g %12.4g %12.4g %12.4g  %s\n" n
                  count (f "mean") (f "p50") (f "p90") (f "p99") unit_)
              hs
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarize a --trace file: hot spans and metric distributions")
    Term.(const run $ file_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                           *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let file_arg =
    let doc = "JSON document to validate ('-' = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Validate.of_string (read_input_or_exit file) with
    | Ok summary -> print_endline summary
    | Error e ->
        Printf.eprintf "invalid: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a repro JSON document (reports parse, manifest invariants \
          hold), a bare run manifest, or a --trace file (spans balanced, \
          durations non-negative, metrics consistent)")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "icache-opt" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Optimizing Instruction Cache Performance for \
         Operating System Intensive Workloads' (Torrellas, Xia, Daigle - HPCA \
         1995)"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; repro_cmd; simulate_cmd; characterize_cmd; layout_cmd; dot_cmd;
         profile_cmd; sweep_cmd; trace_cmd; trace_summary_cmd; validate_cmd ]))
