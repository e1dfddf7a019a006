type row = {
  service : Service.t;
  exec_thresh : float;
  branch_thresh : float;
  blocks : int;
  bytes : int;
}

let compute (ctx : Context.t) =
  Array.of_list
    (List.map
       (fun (s : Sequence.t) ->
         {
           service = s.Sequence.pass.Schedule.service;
           exec_thresh = s.Sequence.pass.Schedule.exec_thresh;
           branch_thresh = s.Sequence.pass.Schedule.branch_thresh;
           blocks = Array.length s.Sequence.blocks;
           bytes = s.Sequence.bytes;
         })
       (Levels.opt_result ctx Levels.OptS).Opt.sequences)

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Seed", Table.Left); ("ExecThresh", Table.Right);
        ("BranchThresh", Table.Right); ("# of BBs", Table.Right);
        ("# of Bytes", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      Table.add_row t
        [
          Service.to_string r.service;
          Printf.sprintf "%g" r.exec_thresh;
          Printf.sprintf "%g" r.branch_thresh;
          Table.cell_i r.blocks;
          Table.cell_i r.bytes;
        ])
    rows;
  Result.report ~id:"table4" ~section:"Table 4: threshold schedule and sequence lengths"
    [
      Result.of_table t;
      Result.paper
        "interrupt seed processed first (1.4%/0.4), others join at lower levels; early";
      Result.paper
        "sequences are hundreds of bytes to a few KB, final sweeps tens of KB";
    ]
