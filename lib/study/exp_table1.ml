let report (ctx : Context.t) =
  let g = Context.os_graph ctx in
  let t =
    Table.create
      [
        ("OS code characteristic", Table.Left);
        ("TRFD_4", Table.Right); ("TRFD+Make", Table.Right);
        ("ARC2D+Fsck", Table.Right); ("Shell", Table.Right);
      ]
  in
  let line label f =
    Table.add_row t (Table.Text label :: List.init (Context.workload_count ctx) f)
  in
  let profile i = ctx.Context.os_profiles.(i) in
  line "Size of Executed OS Code (Bytes)" (fun i ->
      Table.Int (Profile.executed_bytes (profile i) g));
  line "Size of Executed OS Code (%)" (fun i ->
      Table.Float (1, Stats.pct (Profile.executed_bytes (profile i) g) (Graph.code_bytes g)));
  line "Number of Executed OS BBs (%)" (fun i ->
      Table.Float
        (1, Stats.pct (Profile.executed_block_count (profile i)) (Graph.block_count g)));
  Array.iteri
    (fun ci c ->
      line
        (Service.to_string c ^ " Invoc. (% of Total)")
        (fun i ->
          let invocations = ctx.Context.stats.(i).Engine.invocations in
          Table.Pct (1, Stats.pct invocations.(ci) (Array.fold_left ( + ) 0 invocations))))
    Service.all;
  Result.report ~id:"table1" ~section:"Table 1: OS instruction-reference characteristics"
    [
      Result.of_table t;
      Result.paper
        "executed bytes 31,866 / 122,710 / 76,228 / 92,908 (3.4 / 13.1 / 8.1 / 9.9 %);";
      Result.paper
        "mix: interrupts 76.0/65.7/73.8/29.7, faults 23.0/21.3/21.9/12.0, syscalls 0.0/11.2/2.4/54.7";
    ]
