(* Per-layer metrics of one traced repetition, from three sources, none of
   which adds tracing inside the library:
   - spans: the harness's own "bench.*" spans around its calls into each
     layer, and the spans the pipeline already emits (capture_workload,
     levels_build, simulate_batch, replay_pass);
   - counters: the body's Sim_cache and Layout_cache deltas;
   - probes: timed calls of one layer's public function on the run's own
     context, made after the body. *)

type span = {
  name : string;
  track : int;
  parent : string option;  (** Enclosing span on the same track. *)
  seconds : float;
  args : (string * Json.t) list;
}

(* Pair each track's begin and end events into completed spans. *)
let spans events =
  let open_ = Hashtbl.create 8 in
  List.fold_left
    (fun acc (e : Trace_log.event) ->
      let track = e.Trace_log.track in
      let stack = Option.value ~default:[] (Hashtbl.find_opt open_ track) in
      if e.Trace_log.begin_ then begin
        Hashtbl.replace open_ track (e :: stack);
        acc
      end
      else
        match stack with
        | [] -> acc
        | (b : Trace_log.event) :: rest ->
            Hashtbl.replace open_ track rest;
            let parent =
              match rest with (p : Trace_log.event) :: _ -> Some p.Trace_log.name | [] -> None
            in
            {
              name = b.Trace_log.name;
              track;
              parent;
              seconds = (e.Trace_log.ts -. b.Trace_log.ts) *. 1e-6;
              args = b.Trace_log.args;
            }
            :: acc)
    [] events

let total spans name =
  List.fold_left (fun acc s -> if String.equal s.name name then acc +. s.seconds else acc) 0.0 spans

let stages = [ "sequences"; "scf"; "loop_mark"; "place"; "base"; "chang_hwu" ]

(* Metrics of the traced body.  [sim] is its Sim_cache (hits, lookups)
   delta and [stage_deltas] the same per Layout_cache stage. *)
let body events ~sim:(hits, lookups) ~stage_deltas =
  let spans = spans events in
  let total = total spans in
  let body_s = total "bench.body" in
  let attributed =
    List.fold_left
      (fun acc s -> if s.track = 0 && s.parent = Some "bench.body" then acc +. s.seconds else acc)
      0.0 spans
  in
  let captured_words =
    List.fold_left
      (fun acc s ->
        match (s.name, List.assoc_opt "words" s.args) with
        | "capture_workload", Some (Json.Int w) -> acc + w
        | _ -> acc)
      0 spans
  in
  (* The harness's own spans where it calls the layer (the sweeps); on
     repro-suite, where the experiments make the calls, the pipeline's.
     The pipeline's simulate_batch span opens after the batch has keyed
     its members, so keying only shows on the sweeps. *)
  let either bench pipeline =
    let t = total bench in
    if t > 0.0 then t else total pipeline
  in
  let replay = total "replay_pass"
  and batch = either "bench.runner.simulate_batch" "simulate_batch"
  and build = either "bench.levels.build" "levels_build" in
  [
    ("workload.capture_mwords_per_s", float_of_int captured_words /. 1e6 /. total "capture_workload");
    ("levels.build_s", build);
    ("runner.simulate_batch_s", batch);
    ("sim_cache.hit_rate", Measure.ratio hits lookups);
    ("sim_cache.lookups", float_of_int lookups);
    ("unattributed_frac", 1.0 -. (attributed /. body_s));
    ("body.replay_frac", replay /. body_s);
    ("body.layout_frac", build /. body_s);
    (* Batch time outside replay passes: memo keying (Program_layout.digest
       per member) and grouping.  Exact on one domain, where every pass
       runs inside its batch's span. *)
    ("body.keying_frac", Float.max 0.0 (batch -. replay) /. body_s);
  ]
  @ List.concat_map
      (fun stage ->
        let hits, lookups = Option.value ~default:(0, 0) (List.assoc_opt stage stage_deltas) in
        [
          ("layout_cache." ^ stage ^ ".hit_rate", Measure.ratio hits lookups);
          ("layout_cache." ^ stage ^ ".lookups", float_of_int lookups);
        ])
      stages

(* Seconds per experiment and total report rendering, from the
   bench.experiments.* and bench.result.render spans. *)
let experiments events =
  let spans = spans events in
  List.map
    (fun (e : Experiments.t) ->
      ("experiments." ^ e.Experiments.id ^ "_s", total spans ("bench.experiments." ^ e.Experiments.id)))
    Experiments.all
  @ [ ("result.render_ms", 1e3 *. total spans "bench.result.render") ]

let kb size_kb = Config.make ~size_kb ()
let assoc4 policy = Config.make ~size_kb:8 ~assoc:4 ~policy ()

(* One system per cache kernel, all of the 8 KB class. *)
let kernels ~hot_limit =
  [
    ("direct", fun () -> System.unified (kb 8));
    ("lru4", fun () -> System.unified (assoc4 Config.Lru));
    ("fifo4", fun () -> System.unified (assoc4 Config.Fifo));
    ("random4", fun () -> System.unified (assoc4 (Config.Random 1234)));
    ("victim", fun () -> System.victim ~main:(kb 8) ~entries:8);
    ("split", fun () -> System.split ~os:(kb 4) ~app:(kb 4));
    ("reserved", fun () -> System.reserved ~hot:(kb 1) ~rest:(kb 8) ~hot_limit);
  ]

(* Median seconds and minor words allocated by [reps] replays of the trace
   into fresh systems, with the runner's 20% warm-up. *)
let replay ~trace ~map ~reps make =
  let samples =
    List.init reps (fun _ ->
        let systems = make () in
        let w0 = Gc.minor_words () in
        let (), dt =
          Measure.time (fun () ->
              Replay.run_range ~trace ~map ~systems ~warmup:(Trace.exec_count trace / 5))
        in
        (dt, Gc.minor_words () -. w0))
  in
  (Measure.median (List.map fst samples), Measure.median (List.map snd samples))

let probes (ctx : Context.t) =
  let model = ctx.Context.model and profile = ctx.Context.avg_os_profile in
  let loops () = Program_layout.os_loops model in
  let ms f = 1e3 *. Measure.median_time ~reps:3 f in
  let opt = Opt.os_layout ~model ~profile ~loops:(loops ()) (Opt.params ()) in
  let layout = (Levels.build ctx Levels.OptS).(0) in
  let trace = ctx.Context.traces.(0) and map = Program_layout.code_map layout in
  let events = float_of_int (Trace.length trace) in
  (* Short traces get more repetitions, so each probe times a similar
     amount of replay. *)
  let reps = min 40 (max 5 (10_000_000 / ctx.Context.words)) in
  let mev dt = events /. dt /. 1e6 in
  let kernel (name, make) =
    let dt, words = replay ~trace ~map ~reps (fun () -> [| make () |]) in
    [
      ("replay." ^ name ^ ".mev_per_s", mev dt);
      ("replay." ^ name ^ ".minor_words_per_event", words /. events);
    ]
  in
  let batch8, _ =
    replay ~trace ~map ~reps (fun () ->
        Array.of_list
          (List.concat_map
             (fun size_kb ->
               [ System.unified (kb size_kb); System.unified (Config.make ~size_kb ~assoc:2 ()) ])
             [ 4; 8; 16; 32 ]))
  in
  [
    ( "kernel_model.generate_s",
      Measure.median_time ~reps:1 (fun () -> ignore (Generator.generate ctx.Context.spec)) );
    ( "profile.average_ms",
      ms (fun () -> ignore (Profile.average (Array.to_list ctx.Context.os_profiles))) );
    ( "core.opt_s_os_layout_ms",
      1e3
      *. Measure.median_time ~reps:3
           ~prepare:(fun () ->
             Layout_cache.clear ();
             ignore (loops ()))
           (fun () -> ignore (Opt.os_layout ~model ~profile ~loops:(loops ()) (Opt.params ()))) );
    ( "core.sequence_build_ms",
      ms (fun () ->
          ignore
            (Sequence.build ~graph:model.Model.graph ~profile
               ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
               ~schedule:Schedule.paper ())) );
    ("core.address_map_validate_ms", ms (fun () -> Address_map.validate opt.Opt.map));
    ("program_layout.digest_ms", ms (fun () -> ignore (Program_layout.digest layout)));
    ("replay.batch8.member_mev_per_s", 8.0 *. mev batch8);
    ( "stack_dist.mev_per_s",
      mev
        (Measure.median_time ~reps:3 (fun () ->
             ignore (Stack_dist.from_trace ~trace ~map ~os_only:true ()))) );
  ]
  @ List.concat_map kernel (kernels ~hot_limit:(max 1 opt.Opt.scf_bytes))
