(* Baseline shoot-out: Base vs Chang-Hwu (the paper's comparison) vs
   Pettis-Hansen (its successor, not in the paper) vs OptS, on the
   standard 8 KB direct-mapped cache.  The interesting question: does the
   paper's systems-code-specific machinery (seeds, sequences crossing
   routine boundaries, SelfConfFree) still beat the stronger generic
   baseline that displaced C-H a year later? *)

type row = { workload : string; rates : (string * float) list }

let levels = [ "Base"; "C-H"; "P-H"; "OptS" ]

let compute (ctx : Context.t) =
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
  let rates =
    List.mapi
      (fun k name ->
        let rate (r : Runner.run) = Counters.miss_rate r.Runner.counters in
        (name, Array.map rate runs.(k)))
      levels
  in
  Array.mapi
    (fun i ((w : Workload.t), _) ->
      {
        workload = w.Workload.name;
        rates = List.map (fun (name, rs) -> (name, rs.(i))) rates;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      (("Workload", Table.Left)
      :: List.map (fun name -> (name ^ " %", Table.Right)) levels)
  in
  Array.iter
    (fun r ->
      Table.add_row t
        (r.workload
        :: List.map
             (fun (_, rate) -> Table.cell_f ~decimals:3 (100.0 *. rate))
             r.rates))
    rows;
  Result.report ~id:"ph"
    ~section:"Baselines: Base / Chang-Hwu / Pettis-Hansen / OptS (8KB DM)"
    [
      Result.of_table t;
      Result.note
        "P-H improves on C-H's procedure ordering with closest-is-best chains; OptS";
      Result.note
        "should still lead through its OS-specific seeds, sequences and SelfConfFree";
    ]
