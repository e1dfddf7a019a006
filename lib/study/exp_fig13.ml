type split = {
  main_seq : float;
  self_conf_free : float;
  loops : float;
  other_seq : float;
}

type row = {
  workload : string;
  refs : split;
  misses : (Levels.level * split) array;
}

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
  let pct i = if total > 0.0 then 100.0 *. acc.(i) /. total else 0.0 in
  { main_seq = pct 0; self_conf_free = pct 1; loops = pct 2; other_seq = pct 3 }

let compute (ctx : Context.t) =
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
  let runs_per_level = Array.mapi (fun k level -> (level, batch.(k))) levels in
  Array.mapi
    (fun i (w, _) ->
      let p = ctx.Context.os_profiles.(i) in
      let ref_words =
        Array.init (Graph.block_count g) (fun b ->
            p.Profile.block.(b)
            *. float_of_int (Block.instruction_words (Graph.block g b)))
      in
      {
        workload = w.Workload.name;
        refs = classify_split region_of ref_words;
        misses =
          Array.map
            (fun (level, runs) ->
              let m = runs.(i).Runner.os_block_misses in
              (level, classify_split region_of (Array.map float_of_int m)))
            runs_per_level;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Quantity", Table.Left);
        ("MainSeq", Table.Right); ("SelfConfFree", Table.Right);
        ("Loops", Table.Right); ("OtherSeq", Table.Right);
      ]
  in
  let add name label (s : split) =
    Table.add_row t
      [
        name; label;
        Table.cell_pct s.main_seq; Table.cell_pct s.self_conf_free;
        Table.cell_pct s.loops; Table.cell_pct s.other_seq;
      ]
  in
  Array.iter
    (fun r ->
      add r.workload "refs" r.refs;
      Array.iter
        (fun (level, s) -> add "" ("misses " ^ Levels.to_string level) s)
        r.misses;
      Table.add_separator t)
    rows;
  Result.report ~id:"fig13" ~section:"Figure 13: OS refs and misses by block region (8KB DM)"
    [
      Result.of_table t;
      Result.paper
        "MainSeq+SelfConfFree carry 50-65% of refs (Shell lower) and 67-83% of Base";
      Result.paper
        "misses (33% Shell); loops cause almost no misses; OptS empties SelfConfFree misses";
    ]
