type run = {
  spec_seed : int;
  spec_digest : string;
  words : int;
  seed : int;
  jobs : int;
  context_key : string;
}

let run_info : run option Atomic.t = Atomic.make None

let set_run (ctx : Context.t) ~jobs =
  Atomic.set run_info
    (Some
       {
         spec_seed = ctx.spec.Spec.seed;
         spec_digest = Memo.digest (ctx.spec : Spec.t);
         words = ctx.words;
         seed = ctx.seed;
         jobs;
         context_key = Context.key ctx;
       })

let batch_fields =
  [
    "calls"; "members"; "cache_hits"; "simulated"; "replay_passes"; "passes_saved";
    "events_replayed"; "events_saved";
  ]

let to_json () =
  (* GC statistics are a point sample taken now (manifest emission), not
     an accumulation: the emission point is the end of the run, so the
     numbers cover the whole pipeline.  quick_stat counts a domain's minor
     words only up to its last minor collection, and Gc.minor_words counts
     only the calling domain, so empty every minor heap first. *)
  let gc_json =
    Gc.minor ();
    let g = Gc.quick_stat () in
    Json.Obj
      [
        ("minor_collections", Json.Int g.Gc.minor_collections);
        ("major_collections", Json.Int g.Gc.major_collections);
        ("compactions", Json.Int g.Gc.compactions);
        ("minor_words", Json.Float g.Gc.minor_words);
        ("promoted_words", Json.Float g.Gc.promoted_words);
        ("major_words", Json.Float g.Gc.major_words);
        ("heap_words", Json.Int g.Gc.heap_words);
        ("top_heap_words", Json.Int g.Gc.top_heap_words);
      ]
  in
  let counter name =
    Json.Int (Option.value ~default:0 (Metrics_registry.find_counter name))
  in
  Json.Obj
    [
      ("schema_version", Json.Int 5);
      ( "run",
        match Atomic.get run_info with
        | None -> Json.Null
        | Some r ->
            Json.Obj
              [
                ("spec_seed", Json.Int r.spec_seed);
                ("spec_digest", Json.String r.spec_digest);
                ("words", Json.Int r.words);
                ("seed", Json.Int r.seed);
                ("jobs", Json.Int r.jobs);
                ("context_key", Json.String r.context_key);
                ("gc", gc_json);
              ] );
      ( "stages",
        Json.List
          (List.map
             (fun (name, count, seconds) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("count", Json.Int count);
                   ("seconds", Json.Float seconds);
                 ])
             (Trace_log.stage_totals ())) );
      ("batch", Json.Obj (List.map (fun f -> (f, counter ("batch." ^ f))) batch_fields));
      ("metrics", Metrics_registry.to_json ());
    ]
