(* Percentages of [values] per region: MainSeq, SelfConfFree, Loops and
   OtherSeq (which takes the cold blocks too). *)
let classify_split region_of values =
  let acc = [| 0.0; 0.0; 0.0; 0.0 |] in
  Array.iteri
    (fun b v ->
      let slot =
        match region_of b with
        | Address_map.Main_seq -> 0
        | Address_map.Self_conf_free -> 1
        | Address_map.Loop_area -> 2
        | Address_map.Other_seq | Address_map.Cold -> 3
      in
      acc.(slot) <- acc.(slot) +. v)
    values;
  let total = Array.fold_left ( +. ) 0.0 acc in
  Array.map (fun v -> if total > 0.0 then 100.0 *. v /. total else 0.0) acc

let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let config = Config.make ~size_kb:8 () in
  (* Region taxonomy comes from the OptL layout (as in the paper). *)
  let optl = Levels.build ctx Levels.OptL in
  let region_of =
    let m = optl.(0).Program_layout.os_map in
    fun b -> Address_map.region m b
  in
  let levels = [| Levels.Base; Levels.CH; Levels.OptS; Levels.OptL |] in
  let batch =
    Runner.simulate_batch ctx
      ~members:(Array.map (fun level -> (Levels.build ctx level, config)) levels)
      ~attribute_os:true ()
  in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Quantity", Table.Left);
        ("MainSeq", Table.Right); ("SelfConfFree", Table.Right);
        ("Loops", Table.Right); ("OtherSeq", Table.Right);
      ]
  in
  let add name label values =
    Table.add_row t
      (name :: label
      :: Array.to_list (Array.map Table.cell_pct (classify_split region_of values)))
  in
  Array.iteri
    (fun i name ->
      let p = ctx.Context.os_profiles.(i) in
      add name "refs"
        (Array.init (Graph.block_count g) (fun b ->
             p.Profile.block.(b)
             *. float_of_int (Block.instruction_words (Graph.block g b))));
      Array.iteri
        (fun k level ->
          add "" ("misses " ^ Levels.to_string level)
            (Array.map float_of_int batch.(k).(i).Runner.os_block_misses))
        levels;
      Table.add_separator t)
    (Context.workload_names ctx);
  Result.report ~id:"fig13" ~section:"Figure 13: OS refs and misses by block region (8KB DM)"
    [
      Result.of_table t;
      Result.paper
        "MainSeq+SelfConfFree carry 50-65% of refs (Shell lower) and 67-83% of Base";
      Result.paper
        "misses (33% Shell); loops cause almost no misses; OptS empties SelfConfFree misses";
    ]
