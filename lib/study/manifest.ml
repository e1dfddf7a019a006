type run = {
  spec_seed : int;
  spec_digest : string;
  words : int;
  seed : int;
  jobs : int;
  context_key : string;
}

type stage = { mutable count : int; mutable seconds : float }

(* Aggregate effectiveness of Runner.simulate_batch: how many sweep
   members rode a shared replay pass instead of walking the trace alone.
   "Passes" and "events" count (workload x member) replay work; saved =
   what the per-config sequential path would have done minus what the
   fused path actually did. *)
type batch = {
  mutable calls : int;
  mutable members : int;
  mutable cache_hits : int;
  mutable simulated : int;
  mutable replay_passes : int;
  mutable passes_saved : int;
  mutable events_replayed : int;
  mutable events_saved : int;
}

let lock = Mutex.create ()
let run_info : run option ref = ref None
let stages : (string, stage) Hashtbl.t = Hashtbl.create 8
let stage_order : string list ref = ref [] (* reverse first-seen order *)
let experiments : (string * float) list ref = ref [] (* reverse order *)

let batch_stats =
  {
    calls = 0;
    members = 0;
    cache_hits = 0;
    simulated = 0;
    replay_passes = 0;
    passes_saved = 0;
    events_replayed = 0;
    events_saved = 0;
  }

let record_stage name seconds =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt stages name with
      | Some s ->
          s.count <- s.count + 1;
          s.seconds <- s.seconds +. seconds
      | None ->
          Hashtbl.add stages name { count = 1; seconds };
          stage_order := name :: !stage_order)

let time name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> record_stage name (Unix.gettimeofday () -. t0)) f

let set_run ~spec_seed ~spec_digest ~words ~seed ~jobs ~context_key =
  Mutex.protect lock (fun () ->
      match !run_info with
      | Some _ -> ()
      | None -> run_info := Some { spec_seed; spec_digest; words; seed; jobs; context_key })

let record_experiment ~id ~seconds =
  Mutex.protect lock (fun () -> experiments := (id, seconds) :: !experiments)

let record_batch ~members ~cache_hits ~simulated ~replay_passes ~passes_saved
    ~events_replayed ~events_saved =
  Mutex.protect lock (fun () ->
      let b = batch_stats in
      b.calls <- b.calls + 1;
      b.members <- b.members + members;
      b.cache_hits <- b.cache_hits + cache_hits;
      b.simulated <- b.simulated + simulated;
      b.replay_passes <- b.replay_passes + replay_passes;
      b.passes_saved <- b.passes_saved + passes_saved;
      b.events_replayed <- b.events_replayed + events_replayed;
      b.events_saved <- b.events_saved + events_saved)

(* The counts of one Memo, as every cache object of the manifest shows them. *)
let memo_fields (s : Memo.stats) =
  [
    ("hits", Json.Int s.hits);
    ("misses", Json.Int s.misses);
    ("lookups", Json.Int (s.hits + s.misses));
  ]

let hit_rate (s : Memo.stats) =
  let lookups = float_of_int (s.hits + s.misses) in
  ("hit_rate", Json.Float (if lookups = 0.0 then 0.0 else float_of_int s.hits /. lookups))

let to_json () =
  let run, stage_rows, experiment_rows, batch =
    Mutex.protect lock (fun () ->
        ( !run_info,
          List.rev_map
            (fun name ->
              let s = Hashtbl.find stages name in
              (name, s.count, s.seconds))
            !stage_order,
          List.rev !experiments,
          { batch_stats with calls = batch_stats.calls } ))
  in
  let sim = Sim_cache.stats () and layout_stages = Layout_cache.stage_stats () in
  (* GC statistics are a point sample taken now (manifest emission), not
     an accumulation: quick_stat is cheap and the emission point is the
     end of the run, so the numbers cover the whole pipeline. *)
  let gc_json =
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
  Json.Obj
    [
      ("schema_version", Json.Int 4);
      ( "run",
        match run with
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
             stage_rows) );
      ("sim_cache", Json.Obj (memo_fields sim @ [ hit_rate sim ]));
      ( "layout",
        Json.Obj
          [
            ( "stages",
              Json.List
                (List.map
                   (fun (name, s) ->
                     Json.Obj
                       ((("name", Json.String name) :: memo_fields s)
                       @ [ ("seconds", Json.Float s.Memo.seconds) ]))
                   layout_stages) );
            hit_rate (Layout_cache.totals ());
          ] );
      ( "batch",
        Json.Obj
          [
            ("calls", Json.Int batch.calls);
            ("members", Json.Int batch.members);
            ("cache_hits", Json.Int batch.cache_hits);
            ("simulated", Json.Int batch.simulated);
            ("replay_passes", Json.Int batch.replay_passes);
            ("passes_saved", Json.Int batch.passes_saved);
            ("events_replayed", Json.Int batch.events_replayed);
            ("events_saved", Json.Int batch.events_saved);
          ] );
      ( "experiments",
        Json.List
          (List.map
             (fun (id, seconds) ->
               Json.Obj [ ("id", Json.String id); ("seconds", Json.Float seconds) ])
             experiment_rows) );
      ("metrics", Metrics_registry.to_json ());
    ]

let reset () =
  Mutex.protect lock (fun () ->
      run_info := None;
      Hashtbl.reset stages;
      stage_order := [];
      experiments := [];
      let b = batch_stats in
      b.calls <- 0;
      b.members <- 0;
      b.cache_hits <- 0;
      b.simulated <- 0;
      b.replay_passes <- 0;
      b.passes_saved <- 0;
      b.events_replayed <- 0;
      b.events_saved <- 0)
