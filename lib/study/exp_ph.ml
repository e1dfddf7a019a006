(* Baseline shoot-out: Base vs Chang-Hwu (the paper's comparison) vs
   Pettis-Hansen (its successor, not in the paper) vs OptS, on the
   standard 8 KB direct-mapped cache.  The interesting question: does the
   paper's systems-code-specific machinery (seeds, sequences crossing
   routine boundaries, SelfConfFree) still beat the stronger generic
   baseline that displaced C-H a year later? *)

type row = { workload : string; rates : (string * float) list }

let levels = [ "Base"; "C-H"; "P-H"; "OptS" ]

let compute (ctx : Context.t) =
  let model = ctx.Context.model in
  let profile = ctx.Context.avg_os_profile in
  let g = Context.os_graph ctx in
  let os_map = function
    | "Base" -> Base.layout g ~order:model.Model.base_order
    | "C-H" -> Chang_hwu.layout g profile
    | "P-H" -> Pettis_hansen.layout g profile
    | "OptS" ->
        (Opt.os_layout ~model ~profile ~loops:(Context.os_loops ctx) (Opt.params ()))
          .Opt.map
    | other -> invalid_arg other
  in
  let layouts_of name =
    let map = os_map name in
    Array.map
      (fun ((_ : Workload.t), program) ->
        Program_layout.with_os_map
          (Program_layout.base ~model ~program)
          ~name map ~os_meta:None)
      ctx.Context.pairs
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
