(* Baseline shoot-out: Base vs Chang-Hwu (the paper's comparison) vs
   Pettis-Hansen (its successor, not in the paper) vs OptS, on the
   standard 8 KB direct-mapped cache.  The interesting question: does the
   paper's systems-code-specific machinery (seeds, sequences crossing
   routine boundaries, SelfConfFree) still beat the stronger generic
   baseline that displaced C-H a year later? *)

let levels = [ "Base"; "C-H"; "P-H"; "OptS" ]

let report (ctx : Context.t) =
  let layouts_of = function
    | "Base" -> Levels.build ctx Levels.Base
    | "C-H" -> Levels.build ctx Levels.CH
    | "OptS" -> Levels.build ctx Levels.OptS
    | "P-H" ->
        Levels.os_variant ctx
          (Pettis_hansen.layout (Context.os_graph ctx) ctx.Context.avg_os_profile)
    | other -> invalid_arg other
  in
  let config = Config.make ~size_kb:8 () in
  let runs =
    Runner.simulate_batch ctx
      ~members:
        (Parallel.map_array (fun _ name -> (layouts_of name, config)) (Array.of_list levels))
      ()
  in
  let t =
    Table.create
      (("Workload", Table.Left)
      :: List.map (fun name -> (name ^ " %", Table.Right)) levels)
  in
  Array.iteri
    (fun i name ->
      Table.add_row t
        (Table.Text name
        :: Array.to_list
             (Array.map
                (fun level_runs ->
                  Table.Float (3, 100.0 *. Counters.miss_rate level_runs.(i).Runner.counters))
                runs)))
    (Context.workload_names ctx);
  Result.report ~id:"ph"
    ~section:"Baselines: Base / Chang-Hwu / Pettis-Hansen / OptS (8KB DM)"
    [
      Result.of_table t;
      Result.note
        "P-H improves on C-H's procedure ordering with closest-is-best chains; OptS";
      Result.note
        "should still lead through its OS-specific seeds, sequences and SelfConfFree";
    ]
