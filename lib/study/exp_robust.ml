(* Methodology robustness: the paper traces about one minute of real time
   per workload; ours traces a fixed instruction-word budget.  This
   experiment rebuilds the whole pipeline (kernel, traces, profiles,
   layouts) at several budgets and checks that the headline ratio -
   OptS misses over Base misses on the 8 KB cache - is stable, i.e. the
   committed 2 M-word configuration is long enough. *)

let ratio_at (ctx : Context.t) words =
  (* The committed budget is the context itself: same spec, words and
     seed, so rebuilding it would recapture identical traces. *)
  let ctx =
    if words = ctx.Context.words then ctx
    else Context.create ~spec:ctx.Context.spec ~words ~seed:ctx.Context.seed ()
  in
  let config = Config.make ~size_kb:8 () in
  let misses =
    Runner.simulate_batch ctx
      ~members:
        [| (Levels.build ctx Levels.OptS, config); (Levels.build ctx Levels.Base, config) |]
      ()
    |> Array.map (fun runs -> Counters.misses (Runner.total runs))
  in
  Stats.ratio misses.(0) misses.(1)

let report (ctx : Context.t) =
  (* Rebuild contexts at each budget with the committed spec and seed so
     only the trace length varies.  The budgets are independent (each
     context has its own key, so they share no memo entry) and run
     concurrently; each one's trace capture fans out inside its task. *)
  let words = ctx.Context.words in
  let budgets = [| words / 4; words / 2; words; words * 2 |] in
  let ratios = Parallel.map_array (fun _ words -> ratio_at ctx words) budgets in
  let t =
    Table.create [ ("words per workload", Table.Right); ("OptS/Base", Table.Right) ]
  in
  Array.iteri
    (fun k words -> Table.add_row t [ Table.Int words; Table.Float (2, ratios.(k)) ])
    budgets;
  Result.report ~id:"robust" ~section:"Robustness: OptS/Base miss ratio vs traced words"
    [
      Result.of_table t;
      Result.note "spread: %.3f (min %.2f, max %.2f) - the committed runs are stable"
        (Stats.maximum ratios -. Stats.minimum ratios)
        (Stats.minimum ratios) (Stats.maximum ratios);
    ]
