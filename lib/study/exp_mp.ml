(* Multiprocessor validation (Section 2's methodology): the paper traces
   four processors, each with its own instruction cache, and reports the
   per-processor average.  This experiment runs the four workloads on a
   4-CPU machine model with cross-processor interrupts, replays each CPU's
   trace through its own 8 KB cache under Base and OptS, and checks that
   (a) per-CPU miss rates are mutually consistent, so averaging is sound,
   and (b) the OptS gain measured on one CPU transfers to the machine. *)

type row = {
  workload : string;
  base_rates : float array;  (** Per CPU. *)
  opt_rates : float array;
  forced_share : float;  (** Cross-processor interrupts / invocations. *)
}

let cpus = 4

let xcall_prob_for (w : Workload.t) =
  (* Parallel scientific loads synchronize constantly; the multiprogrammed
     shell almost never broadcasts. *)
  match w.Workload.name with
  | "TRFD_4" -> 0.5
  | "TRFD+Make" | "ARC2D+Fsck" -> 0.25
  | _ -> 0.03

let compute (ctx : Context.t) =
  let base_layouts = Levels.build ctx Levels.Base in
  let opt_layouts = Levels.build ctx Levels.OptS in
  (* Each workload's machine run seeds its own engine, so they run
     concurrently and merge by index. *)
  Parallel.map_array
    (fun i ((w : Workload.t), program) ->
      let words_per_cpu = ctx.Context.words / cpus in
      let r =
        Trace_log.with_span "multiproc.capture"
          ~args:
            [
              ("workload", Json.String w.Workload.name);
              ("words", Json.Int (words_per_cpu * cpus));
            ]
        @@ fun () ->
        Multiproc.run ~program ~workload:w ~cpus ~words_per_cpu ~seed:(97 + i)
          ~xcall_prob:(xcall_prob_for w) ()
      in
      let rates layout =
        Array.map
          (fun (c : Multiproc.cpu) ->
            let system = System.create (System.Unified (Config.make ~size_kb:8 ())) in
            Runner.replay ~trace:c.Multiproc.trace ~map:(Program_layout.code_map layout)
              [| system |];
            Counters.miss_rate (System.counters system))
          r.Multiproc.cpus
      in
      let invocations =
        Array.fold_left
          (fun acc (c : Multiproc.cpu) ->
            acc + Array.fold_left ( + ) 0 c.Multiproc.invocations)
          0 r.Multiproc.cpus
      in
      let forced =
        Array.fold_left
          (fun acc (c : Multiproc.cpu) -> acc + c.Multiproc.forced)
          0 r.Multiproc.cpus
      in
      {
        workload = w.Workload.name;
        base_rates = rates base_layouts.(i);
        opt_rates = rates opt_layouts.(i);
        forced_share = Stats.ratio forced invocations;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      [
        ("Workload", Table.Left); ("Layout", Table.Left); ("CPU0 %", Table.Right);
        ("CPU1 %", Table.Right); ("CPU2 %", Table.Right); ("CPU3 %", Table.Right);
        ("avg %", Table.Right);
      ]
  in
  Array.iter
    (fun r ->
      let line name rates =
        Table.add_row t
          ([ ""; name ]
          @ Array.to_list
              (Array.map (fun x -> Table.cell_f ~decimals:3 (100.0 *. x)) rates)
          @ [ Table.cell_f ~decimals:3 (100.0 *. Stats.mean rates) ])
      in
      Table.add_row t [ r.workload; ""; ""; ""; ""; ""; "" ];
      line "Base" r.base_rates;
      line "OptS" r.opt_rates;
      Table.add_separator t)
    rows;
  let shares =
    Array.to_list rows
    |> List.map (fun r ->
           Result.note "%-12s cross-processor interrupts: %.0f%% of invocations"
             r.workload (100.0 *. r.forced_share))
  in
  Result.report ~id:"mp" ~section:"Multiprocessor: per-CPU miss rates, 4 CPUs, 8KB DM each"
    ((Result.of_table t :: shares)
    @ [
        Result.paper
          "the paper reports per-processor averages; OptS must win on every CPU,";
        Result.paper "with parallel loads showing heavy cross-processor interrupt shares";
      ])
