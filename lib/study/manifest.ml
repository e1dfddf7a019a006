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

let schema_version = 5

let fields = [ "schema_version"; "run"; "stages"; "batch"; "metrics" ]

(* [run.gc]'s fields, each read from one [Gc.quick_stat]. *)
let gc_stats =
  [
    ("minor_collections", fun g -> Json.Int g.Gc.minor_collections);
    ("major_collections", fun g -> Json.Int g.Gc.major_collections);
    ("compactions", fun g -> Json.Int g.Gc.compactions);
    ("minor_words", fun g -> Json.Float g.Gc.minor_words);
    ("promoted_words", fun g -> Json.Float g.Gc.promoted_words);
    ("major_words", fun g -> Json.Float g.Gc.major_words);
    ("heap_words", fun g -> Json.Int g.Gc.heap_words);
    ("top_heap_words", fun g -> Json.Int g.Gc.top_heap_words);
  ]

let gc_fields = List.map fst gc_stats

let to_json () =
  (* GC statistics are a point sample taken now (manifest emission), not
     an accumulation: the emission point is the end of the run, so the
     numbers cover the whole pipeline.  quick_stat counts a domain's minor
     words only up to its last minor collection, and Gc.minor_words counts
     only the calling domain, so empty every minor heap first. *)
  let gc_json =
    Gc.minor ();
    let g = Gc.quick_stat () in
    Json.Obj (List.map (fun (name, read) -> (name, read g)) gc_stats)
  in
  let counter name =
    Json.Int (Option.value ~default:0 (Metrics_registry.find_counter name))
  in
  Json.Obj
    (List.combine fields
       [
         Json.Int schema_version;
         (match Atomic.get run_info with
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
               ]);
         Json.List
           (List.map
              (fun (name, count, seconds) ->
                Json.Obj
                  [
                    ("name", Json.String name);
                    ("count", Json.Int count);
                    ("seconds", Json.Float seconds);
                  ])
              (Trace_log.stage_totals ()));
         Json.Obj (List.map (fun f -> (f, counter ("batch." ^ f))) batch_fields);
         Metrics_registry.to_json ();
       ])
