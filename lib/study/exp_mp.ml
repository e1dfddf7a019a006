(* Multiprocessor validation (Section 2's methodology): the paper traces
   four processors, each with its own instruction cache, and reports the
   per-processor average.  This experiment runs the four workloads on a
   4-CPU machine model with cross-processor interrupts, replays each CPU's
   trace through its own 8 KB cache under Base and OptS, and checks that
   (a) per-CPU miss rates are mutually consistent, so averaging is sound,
   and (b) the OptS gain measured on one CPU transfers to the machine. *)

let cpus = 4

let xcall_prob_for (w : Workload.t) =
  (* Parallel scientific loads synchronize constantly; the multiprogrammed
     shell almost never broadcasts. *)
  match w.Workload.name with
  | "TRFD_4" -> 0.5
  | "TRFD+Make" | "ARC2D+Fsck" -> 0.25
  | _ -> 0.03

let report (ctx : Context.t) =
  let base_layouts = Levels.build ctx Levels.Base in
  let opt_layouts = Levels.build ctx Levels.OptS in
  (* Each workload's machine run seeds its own engine, so they run
     concurrently and merge by index. *)
  let rows =
    Parallel.map_array (fun i ((w : Workload.t), program) ->
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
      ( w.Workload.name,
        rates base_layouts.(i),
        rates opt_layouts.(i),
        100.0 *. Stats.ratio forced invocations ))
    ctx.Context.pairs
  in
  let columns =
    [ ("Workload", Table.Left); ("Layout", Table.Left) ]
    @ List.init cpus (fun c -> (Printf.sprintf "CPU%d %%" c, Table.Right))
    @ [ ("avg %", Table.Right) ]
  in
  let t = Table.create columns in
  Array.iter
    (fun (workload, base_rates, opt_rates, _) ->
      let line name rates =
        Table.add_row t
          ([ Table.Text ""; Table.Text name ]
          @ Array.to_list (Array.map (fun x -> Table.Float (3, 100.0 *. x)) rates)
          @ [ Table.Float (3, 100.0 *. Stats.mean rates) ])
      in
      Table.add_row t
        (Table.Text workload :: List.init (List.length columns - 1) (fun _ -> Table.Text ""));
      line "Base" base_rates;
      line "OptS" opt_rates;
      Table.add_separator t)
    rows;
  let shares =
    Array.to_list rows
    |> List.map (fun (workload, _, _, share) ->
           Result.scalar
             ~text:
               (Printf.sprintf "%-12s cross-processor interrupts: %.0f%% of invocations"
                  workload share)
             [ ("cross_processor_interrupt_pct", Table.Pct (0, share)) ])
  in
  Result.report ~id:"mp" ~section:"Multiprocessor: per-CPU miss rates, 4 CPUs, 8KB DM each"
    ((Result.of_table t :: shares)
    @ [
        Result.paper
          "the paper reports per-processor averages; OptS must win on every CPU,";
        Result.paper "with parallel loads showing heavy cross-processor interrupt shares";
      ])
