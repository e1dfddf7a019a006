let report (ctx : Context.t) =
  let t =
    Table.create
      [
        ("Seed", Table.Left); ("ExecThresh", Table.Right);
        ("BranchThresh", Table.Right); ("# of BBs", Table.Right);
        ("# of Bytes", Table.Right);
      ]
  in
  List.iter
    (fun (s : Sequence.t) ->
      let pass = s.Sequence.pass in
      Table.add_row t
        [
          Service.to_string pass.Schedule.service;
          Printf.sprintf "%g" pass.Schedule.exec_thresh;
          Printf.sprintf "%g" pass.Schedule.branch_thresh;
          Table.cell_i (Array.length s.Sequence.blocks);
          Table.cell_i s.Sequence.bytes;
        ])
    (Levels.opt_result ctx Levels.OptS).Opt.sequences;
  Result.report ~id:"table4" ~section:"Table 4: threshold schedule and sequence lengths"
    [
      Result.of_table t;
      Result.paper
        "interrupt seed processed first (1.4%/0.4), others join at lower levels; early";
      Result.paper
        "sequences are hundreds of bytes to a few KB, final sweeps tens of KB";
    ]
