(* A threshold as %g prints it: a float cell at the fewest decimals that
   read the same (1.4, 0.001, 0), or text for an exponent form (1e-07),
   which no fixed-decimal cell prints. *)
let threshold x =
  let g = Printf.sprintf "%g" x in
  let rec at d =
    if d > 6 then Table.Text g
    else if Printf.sprintf "%.*f" d x = g then Table.Float (d, x)
    else at (d + 1)
  in
  at 0

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
          Table.Text (Service.to_string pass.Schedule.service);
          threshold pass.Schedule.exec_thresh;
          threshold pass.Schedule.branch_thresh;
          Table.Int (Array.length s.Sequence.blocks);
          Table.Int s.Sequence.bytes;
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
