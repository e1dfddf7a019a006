(* The work ledger: what each experiment makes the pipeline do, as exact
   counts.  Every experiment runs alone from cold memos (Sim_cache and
   the layout stages cleared first), so its line does not depend on what
   ran before it, and the counts are the same under any ICACHE_JOBS.
   Each line is [experiment counter delta]; a counter that did not move
   is left out.  With no argument the context is the goldens' (small
   spec, 150k words, seed 7); with [--words N] it is the full-size spec
   at N words and repro's default seed, for the record:

     work_ledger.exe                  # the tier-1 ledger, test/golden/work.ledger
     work_ledger.exe --words 1000000  # the 1M-word suite's ledger *)

let batch = [ "calls"; "members"; "simulated"; "replay_passes"; "events_replayed" ]

let stages = [ "trace_capture"; "levels_build"; "replay" ]

let counters () =
  List.map (fun f -> "batch." ^ f) batch
  @ [ "sim_cache.misses"; "kernel_model.misses" ]
  @ List.map (fun (s, _) -> "layout_cache." ^ s ^ ".misses") (Layout_cache.stage_stats ())
  @ [ "layout_cache.loops.misses" ]

let read () =
  List.map (fun k -> (k, Option.value ~default:0 (Metrics_registry.find_counter k))) (counters ())
  @ List.map
      (fun s ->
        ( "stage." ^ s ^ ".calls",
          List.fold_left
            (fun acc (n, calls, _) -> if String.equal n s then calls else acc)
            0 (Trace_log.stage_totals ()) ))
      stages

let () =
  let ctx =
    match Sys.argv with
    | [| _ |] -> Lazy.force Helpers.small_context
    | [| _; "--words"; n |] -> Context.create ~spec:Spec.default ~words:(int_of_string n) ~seed:11 ()
    | _ ->
        prerr_endline "usage: work_ledger.exe [--words N]";
        exit 2
  in
  List.iter
    (fun (e : Experiments.t) ->
      Sim_cache.clear ();
      Layout_cache.clear ();
      let before = read () in
      ignore (Experiments.compute e ctx);
      let moved =
        List.filter_map
          (fun ((k, v0), (_, v1)) -> if v1 <> v0 then Some (k, v1 - v0) else None)
          (List.combine before (read ()))
      in
      if moved = [] then Printf.printf "%-12s (no counted work)\n" e.Experiments.id;
      List.iter (fun (k, d) -> Printf.printf "%-12s %-34s %d\n" e.Experiments.id k d) moved)
    Experiments.all
