type row = {
  workload : string;
  executed_bytes : int;
  executed_code_pct : float;
  executed_bb_pct : float;
  invocation_pct : float array;
}

let compute (ctx : Context.t) =
  let g = Context.os_graph ctx in
  Array.mapi
    (fun i (w, _) ->
      let p = ctx.Context.os_profiles.(i) in
      let s = ctx.Context.stats.(i) in
      let total_inv = Array.fold_left ( + ) 0 s.Engine.invocations in
      {
        workload = w.Workload.name;
        executed_bytes = Profile.executed_bytes p g;
        executed_code_pct = Stats.pct (Profile.executed_bytes p g) (Graph.code_bytes g);
        executed_bb_pct = Stats.pct (Profile.executed_block_count p) (Graph.block_count g);
        invocation_pct =
          Array.map (fun c -> Stats.pct c total_inv) s.Engine.invocations;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("OS code characteristic", Table.Left);
        ("TRFD_4", Table.Right); ("TRFD+Make", Table.Right);
        ("ARC2D+Fsck", Table.Right); ("Shell", Table.Right);
      ]
  in
  let line label f = Table.add_row t (label :: Array.to_list (Array.map f rows)) in
  line "Size of Executed OS Code (Bytes)" (fun r -> Table.cell_i r.executed_bytes);
  line "Size of Executed OS Code (%)" (fun r -> Table.cell_f ~decimals:1 r.executed_code_pct);
  line "Number of Executed OS BBs (%)" (fun r -> Table.cell_f ~decimals:1 r.executed_bb_pct);
  Array.iteri
    (fun ci c ->
      line
        (Service.to_string c ^ " Invoc. (% of Total)")
        (fun r -> Table.cell_pct r.invocation_pct.(ci)))
    Service.all;
  Result.report ~id:"table1" ~section:"Table 1: OS instruction-reference characteristics"
    [
      Result.of_table t;
      Result.paper
        "executed bytes 31,866 / 122,710 / 76,228 / 92,908 (3.4 / 13.1 / 8.1 / 9.9 %);";
      Result.paper
        "mix: interrupts 76.0/65.7/73.8/29.7, faults 23.0/21.3/21.9/12.0, syscalls 0.0/11.2/2.4/54.7";
    ]
