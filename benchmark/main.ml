(* The repository benchmark: one command runs a named workload from a
   seed, checks its outputs and prints every metric BENCHMARK.json
   declares, by name and unit.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   benchmark/run.sh builds this executable and runs it from the root of
   the checkout; README.md in this directory describes the protocol, the
   workloads and the metrics.

   Every repetition runs in a child process (this executable with
   --child), so each starts with cold Sim_cache, Layout_cache and Levels
   memos, a fresh heap and tracing off.  The parent starts repetitions
   until the next would overrun --seconds, with at least [min_reps], and
   reports the fastest time of each timed call and the median heap.  With
   --trace 1 one more child runs the workload with
   span tracing on and reports the per-layer metrics. *)

let min_reps = 3
let golden_dir = Filename.concat "test" "golden"

(* ---- command line ---- *)

let argv = List.tl (Array.to_list Sys.argv)
let has flag = List.mem flag argv

let arg name =
  let rec find = function
    | key :: v :: _ when String.equal key name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

let int_arg name =
  Option.map
    (fun s ->
      match int_of_string_opt s with
      | Some n -> n
      | None -> die "%s expects an integer, got %S" name s)
    (arg name)

let workload_arg name =
  match arg name with
  | None ->
      die "%s is required (one of %s)" name
        (String.concat ", " (List.map Scenario.name Scenario.all))
  | Some s -> (
      match Scenario.of_name s with Some w -> w | None -> die "unknown workload %S" s)

(* ---- one repetition: a child process ---- *)

let stage_counts () =
  List.map
    (fun (name, (s : Layout_cache.stats)) ->
      (name, (s.Layout_cache.hits, s.Layout_cache.hits + s.Layout_cache.misses)))
    (Layout_cache.stage_stats ())

let spec_digest (spec : Spec.t) = Digest.to_hex (Digest.string (Marshal.to_string spec []))

let child w ~size ~seed ~jobs ~gate ~traced ~golden_dir =
  let p = Scenario.params size w in
  let jobs = Option.value jobs ~default:p.Scenario.jobs in
  Parallel.set_jobs jobs;
  Trace_log.set_enabled traced;
  let ctx, setup_s =
    Measure.time (fun () ->
        Trace_log.with_span "bench.setup" (fun () ->
            Context.create ~spec:p.Scenario.spec ~words:p.Scenario.words ~seed ~jobs ()))
  in
  let hits0 = Sim_cache.hits () and misses0 = Sim_cache.misses () in
  let stages0 = stage_counts () in
  let gc0 = Gc.quick_stat () and cpu0 = Measure.cpu () in
  let finish, wall_s =
    Measure.time (fun () -> Trace_log.with_span "bench.body" (fun () -> Scenario.body w ctx))
  in
  let cpu_s = Measure.cpu () -. cpu0 and gc1 = Gc.quick_stat () in
  let calls = List.rev !Scenario.calls in
  let hits = Sim_cache.hits () - hits0 in
  let lookups = hits + Sim_cache.misses () - misses0 in
  let stage_deltas =
    List.map
      (fun (name, (h, l)) ->
        let h0, l0 = Option.value ~default:(0, 0) (List.assoc_opt name stages0) in
        (name, (h - h0, l - l0)))
      (stage_counts ())
  in
  let body_events = Trace_log.events () in
  let outcome = finish () in
  if gate then outcome.Scenario.gate ~golden_dir;
  let layers =
    if not traced then []
    else begin
      let experiment_events =
        match w with
        | Scenario.Repro_suite -> body_events
        | Scenario.Geometry_sweep | Scenario.Layout_sweep ->
            (* The sweeps run no experiment; time each one at the golden
               context instead. *)
            Trace_log.reset ();
            ignore (Scenario.golden_reports ());
            Trace_log.events ()
      in
      Trace_log.set_enabled false;
      Layers.body body_events ~sim:(hits, lookups) ~stage_deltas
      @ Layers.experiments experiment_events
      @ Layers.probes ctx
    end
  in
  let failed_ops =
    Array.to_list outcome.Scenario.ops
    |> List.filter (fun (op : Scenario.op) -> Option.is_some op.Scenario.failure)
  in
  let strings f = Json.List (List.map (fun op -> Json.String (f op)) failed_ops) in
  let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("setup_s", Json.Float setup_s);
            ("wall_s", Json.Float wall_s);
            ("cpu_s", Json.Float cpu_s);
            ("call_wall_s", Json.List (List.map (fun (w, _) -> Json.Float w) calls));
            ("call_cpu_s", Json.List (List.map (fun (_, c) -> Json.Float c) calls));
            ("peak_heap_mb", Json.Float (mb gc1.Gc.top_heap_words));
            ("minor_mwords", Json.Float ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
            ("major_collections", Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("refs", Json.Int outcome.Scenario.refs);
            ("attempted", Json.Int (Array.length outcome.Scenario.ops));
            ("failed_ops", strings (fun op -> op.Scenario.label));
            ( "failures",
              strings (fun op ->
                  op.Scenario.label ^ ": " ^ Option.value ~default:"" op.Scenario.failure) );
            ("stats_digest", Json.String outcome.Scenario.stats_digest);
            ("jobs", Json.Int jobs);
            ("words", Json.Int p.Scenario.words);
            ("spec_digest", Json.String (spec_digest p.Scenario.spec));
            ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
          ]))

(* ---- a benchmark run: the parent process ---- *)

type run = {
  jobs : int;
  reps : Json.t list;  (** Untraced repetitions, in order. *)
  traced : Json.t option;
  crashes : string list;  (** Children that ended without a record. *)
}

let num j key = Option.value ~default:nan (Option.bind (Json.member key j) Json.to_float)
let count j key = Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int)
let str j key = Option.value ~default:"" (Option.bind (Json.member key j) Json.to_str)

let strs j key =
  Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)
  |> List.filter_map Json.to_str

(* Run this executable as a child and parse the record on the last line
   of its output; the child's stderr passes through. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let last =
    List.fold_left
      (fun acc line -> if String.trim line = "" then acc else Some line)
      None (String.split_on_char '\n' out)
  in
  match (Unix.close_process_in ic, Option.map Json.of_string last) with
  | Unix.WEXITED 0, Some (Ok record) -> Ok record
  | Unix.WEXITED 0, _ -> Error "a repetition printed no record"
  | Unix.WEXITED code, _ -> Error (Printf.sprintf "a repetition exited with code %d" code)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "a repetition was stopped by signal %d" s)

let run_workload w ~size ~min_reps ~seed ~seconds ~trace ~jobs ~golden_dir =
  let child_args ~gate ~traced =
    [ "--child"; Scenario.name w; "--seed"; string_of_int seed; "--golden-dir"; golden_dir ]
    @ (match size with Scenario.Full -> [] | Scenario.Tiny -> [ "--tiny" ])
    @ (match jobs with Some j -> [ "--jobs"; string_of_int j ] | None -> [])
    @ (if gate then [ "--gate" ] else [])
    @ if traced then [ "--traced" ] else []
  in
  let t0 = Measure.now () in
  (* The first repetition also runs the reference gate.  Stop once another
     repetition of the mean length would overrun [seconds]. *)
  let rec loop k reps crashes =
    let reps, crashes =
      match spawn (child_args ~gate:(k = 0) ~traced:false) with
      | Ok record -> (record :: reps, crashes)
      | Error e -> (reps, e :: crashes)
    in
    let elapsed = Measure.now () -. t0 in
    if k + 1 < min_reps || elapsed *. float_of_int (k + 2) /. float_of_int (k + 1) <= seconds
    then loop (k + 1) reps crashes
    else (List.rev reps, crashes)
  in
  let reps, crashes = loop 0 [] [] in
  let traced, crashes =
    if not trace then (None, crashes)
    else
      match spawn (child_args ~gate:false ~traced:true) with
      | Ok record -> (Some record, crashes)
      | Error e -> (None, e :: crashes)
  in
  {
    jobs = Option.value jobs ~default:(Scenario.params size w).Scenario.jobs;
    reps;
    traced;
    crashes = List.rev crashes;
  }

let records r = r.reps @ Option.to_list r.traced

(* Each op counts once, whatever the number of repetitions: every child
   runs the same ops, and the gated one checks them against references.
   An op fails if it failed in any child; a child that crashed adds one
   failure. *)
let attempted r = max 1 (List.fold_left (fun n j -> max n (count j "attempted")) 0 (records r))

let failed r =
  let ops = List.sort_uniq String.compare (List.concat_map (fun j -> strs j "failed_ops") (records r)) in
  min (attempted r) (List.length ops + List.length r.crashes)
let median_of r f = Measure.median (List.map f r.reps)
let min_of r f = List.fold_left (fun acc j -> Float.min acc (f j)) infinity r.reps

let floats j key =
  Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)
  |> List.map (fun v -> Option.value ~default:nan (Json.to_float v))

(* Host times take the fastest of the repetitions, call by call.  Every
   repetition makes the same deterministic calls, and the machine's other
   tenants can only add time to them, often in bursts shorter than a call:
   the fastest time of each call leaves those out, where the median of
   whole repetitions took them in.  The body's time is the sum over its
   calls. *)
let fastest_calls r key =
  match List.map (fun j -> floats j key) r.reps with
  | [] -> nan
  | first :: rest ->
      List.fold_left
        (fun acc xs ->
          if List.length xs <> List.length acc then
            die "repetitions made %d and %d timed calls" (List.length acc) (List.length xs);
          List.map2 Float.min acc xs)
        first rest
      |> List.fold_left ( +. ) 0.0

let end_to_end r =
  let wall_s = fastest_calls r "call_wall_s" in
  [
    ("setup_s", min_of r (fun j -> num j "setup_s"));
    ("wall_s", wall_s);
    ("cpu_s", fastest_calls r "call_cpu_s");
    ("sim_mips", median_of r (fun j -> float_of_int (count j "refs")) /. 1e6 /. wall_s);
    ("peak_heap_mb", median_of r (fun j -> num j "peak_heap_mb"));
    ("op_ok_frac", 1.0 -. Measure.ratio (failed r) (attempted r));
  ]

let per_layer r =
  match r.traced with
  | None -> []
  | Some t ->
      let layers =
        match Json.member "layers" t with
        | Some (Json.Obj kvs) ->
            List.map (fun (k, v) -> (k, Option.value ~default:nan (Json.to_float v))) kvs
        | _ -> []
      in
      layers
      @ [
          ( "parallel.utilization",
            median_of r (fun j -> num j "cpu_s" /. (num j "wall_s" *. float_of_int r.jobs)) );
          ("gc.minor_mwords", median_of r (fun j -> num j "minor_mwords"));
          ("gc.major_collections", median_of r (fun j -> float_of_int (count j "major_collections")));
          ("trace.overhead_frac", (num t "wall_s" /. median_of r (fun j -> num j "wall_s")) -. 1.0);
          ("op_fail_frac", Measure.ratio (failed r) (attempted r));
        ]

(* A metric's unit follows from its name; BENCHMARK.json must agree. *)
let unit_of name =
  let ends suffix = String.ends_with ~suffix name in
  if ends "mev_per_s" then "Mev/s"
  else if ends "mwords_per_s" || String.equal name "sim_mips" then "Mwords/s"
  else if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_mwords" then "Mwords"
  else if ends "_per_event" then "words/event"
  else if ends "lookups" || ends "collections" then "count"
  else "ratio"

(* The metric names BENCHMARK.json declares in [section], in order. *)
let declared section =
  let doc =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> die "BENCHMARK.json: %s" e
    | exception Sys_error e -> die "%s" e
  in
  let field key item = Option.bind (Json.member key item) Json.to_str in
  match Option.bind (Json.member section doc) Json.to_list with
  | None -> die "BENCHMARK.json has no %s list" section
  | Some items ->
      List.map
        (fun item ->
          match (field "name" item, field "unit" item) with
          | Some name, Some u ->
              if not (String.equal u (unit_of name)) then
                die "BENCHMARK.json gives %s the unit %s; the harness measures it in %s" name u
                  (unit_of name);
              name
          | _ -> die "BENCHMARK.json: every %s entry needs a name and a unit" section)
        items

let select names measured =
  List.map
    (fun name ->
      match List.assoc_opt name measured with
      | Some v -> (name, v)
      | None -> die "BENCHMARK.json declares %s, which the harness does not measure" name)
    names

(* The commit of the checkout, when it is a git repository. *)
let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some sha -> sha
      | None ->
          Option.bind (read (Filename.concat ".git" "packed-refs")) (fun packed ->
              List.find_map
                (fun line ->
                  match String.split_on_char ' ' line with
                  | [ sha; r ] when String.equal r ref_ -> Some sha
                  | _ -> None)
                (String.split_on_char '\n' packed))
          |> Option.value ~default:"unknown")
  | Some sha -> sha
  | None -> "unknown"

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     ( name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit_of name)) ] ))
                   metrics) );
          ]))

let benchmark () =
  let w = workload_arg "--workload" in
  let seed = Option.value (int_arg "--seed") ~default:1 in
  let seconds = float_of_int (Option.value (int_arg "--seconds") ~default:30) in
  let trace =
    match arg "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s -> die "--trace expects 0 or 1, got %S" s
  in
  let names = declared (if trace then "per_layer" else "end_to_end") in
  let r = run_workload w ~size:Scenario.Full ~min_reps ~seed ~seconds ~trace ~jobs:None ~golden_dir in
  let first =
    match r.reps with
    | j :: _ -> j
    | [] -> die "no repetition finished: %s" (String.concat "; " r.crashes)
  in
  let digests = List.sort_uniq String.compare (List.map (fun j -> str j "stats_digest") (records r)) in
  let failures =
    List.sort_uniq String.compare (List.concat_map (fun j -> strs j "failures") (records r))
    @ r.crashes
  in
  Printf.printf "%s seed %d: %d repetitions, %d ops, %d failed\n" (Scenario.name w) seed
    (List.length r.reps) (attempted r) (failed r);
  List.iter
    (fun key ->
      let xs = List.map (fun j -> num j key) r.reps in
      Printf.printf "  %-13s median %.4f  min %.4f  max %.4f  (n=%d)\n" key (Measure.median xs)
        (List.fold_left Float.min infinity xs)
        (List.fold_left Float.max neg_infinity xs)
        (List.length xs))
    [ "setup_s"; "wall_s"; "cpu_s"; "peak_heap_mb" ];
  List.iter (Printf.printf "  failure: %s\n") failures;
  if List.length digests > 1 then print_endline "  stats_digest differs between repetitions";
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ( "run",
              Json.Obj
                [
                  ("workload", Json.String (Scenario.name w));
                  ("engine_seed", Json.Int seed);
                  ("repetitions", Json.Int (List.length r.reps));
                  ("nproc", Json.Int (Domain.recommended_domain_count ()));
                  ("ocaml", Json.String Sys.ocaml_version);
                  ("icache_jobs", Json.Int r.jobs);
                  ("words", Json.Int (count first "words"));
                  ("spec_digest", Json.String (str first "spec_digest"));
                  ("git_commit", Json.String (git_commit ()));
                  ("stats_digest", Json.String (String.concat "," digests));
                  ("failures", Json.List (List.map (fun f -> Json.String f) failures));
                ] );
          ]));
  let metrics = select names (if trace then per_layer r else end_to_end r) in
  print_result
    ~correct:(failed r = 0 && List.length digests = 1)
    ~attempted:(attempted r) ~failed:(failed r) metrics

(* ---- self-test ---- *)

let copy_dir src dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> Out_channel.output_string oc data))
    (Sys.readdir src)

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Each workload at the tiny size must measure every declared metric with
   no failed op, repro-suite must give one stats_digest on 1 and 2
   domains, and a golden transcript with one flipped byte must fail
   exactly its op. *)
let self_test () =
  let ok = ref true in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") msg;
        if not cond then ok := false)
      fmt
  in
  let names = declared "end_to_end" @ declared "per_layer" in
  let tiny ?jobs ~golden_dir ~trace w =
    run_workload w ~size:Scenario.Tiny ~min_reps:1 ~seed:1 ~seconds:0.0 ~trace ~jobs ~golden_dir
  in
  List.iter
    (fun w ->
      let r = tiny ~golden_dir ~trace:true w in
      let measured = end_to_end r @ per_layer r in
      let missing = List.filter (fun n -> not (List.mem_assoc n measured)) names in
      check (missing = []) "%s measures all %d declared metrics%s" (Scenario.name w)
        (List.length names)
        (String.concat "" (List.map (( ^ ) " missing:") missing));
      check (failed r = 0 && attempted r > 0) "%s: %d ops, %d failed" (Scenario.name w)
        (attempted r) (failed r))
    Scenario.all;
  let digests jobs =
    let r = tiny ~jobs ~golden_dir ~trace:false Scenario.Repro_suite in
    String.concat "," (List.map (fun j -> str j "stats_digest") r.reps)
  in
  let one = digests 1 and two = digests 2 in
  check
    (one <> "" && String.equal one two)
    "repro-suite stats_digest is the same on 1 and 2 domains: %s, %s" one two;
  let corrupt =Filename.concat "benchmark" ".selftest-golden" in
  let r =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists corrupt then remove_dir corrupt)
      (fun () ->
        copy_dir golden_dir corrupt;
        let path = Filename.concat corrupt "fig12.txt" in
        let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
        tiny ~golden_dir:corrupt ~trace:false Scenario.Repro_suite)
  in
  let failures = List.concat_map (fun j -> strs j "failures") r.reps in
  check
    (failed r = 1 && List.exists (String.starts_with ~prefix:"fig12:") failures)
    "one flipped byte in a golden transcript fails its op: %s" (String.concat "; " failures);
  if not !ok then exit 1

let () =
  if has "--self-test" then self_test ()
  else if Option.is_some (arg "--child") then
    child (workload_arg "--child")
      ~size:(if has "--tiny" then Scenario.Tiny else Scenario.Full)
      ~seed:(Option.value (int_arg "--seed") ~default:1)
      ~jobs:(int_arg "--jobs") ~gate:(has "--gate") ~traced:(has "--traced")
      ~golden_dir:(Option.value (arg "--golden-dir") ~default:golden_dir)
  else benchmark ()
