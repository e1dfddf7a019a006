(* Profile cross-validation.

   The paper builds its layouts from the {e average} profile of all four
   workloads and argues (Figure 2) that the popular OS routines are
   common to all of them.  This experiment quantifies that: an OptS layout
   is built from each single workload's profile and evaluated on every
   workload, normalized to the layout built from the workload's own
   profile.  Values near 1.0 off the diagonal mean profiles transfer.
   Row [i], column [j]: misses of workload [j] under the layout built from
   workload [i]'s profile, over workload [j]'s misses under its
   own-profile layout; the last row is the paper's averaged-profile
   layout. *)

let report (ctx : Context.t) =
  let n = Context.workload_count ctx in
  let names = Context.workload_names ctx in
  (* One layout per workload profile, then the averaged one, through the
     8 KB cache in one batch. *)
  let profiles = Array.append ctx.Context.os_profiles [| ctx.Context.avg_os_profile |] in
  let config = Config.make ~size_kb:8 () in
  let misses =
    Runner.simulate_batch ctx
      ~members:
        (Parallel.map_array
           (fun _ profile -> (Levels.opt_variant ctx ~profile (), config))
           profiles)
      ()
    |> Array.map (Array.map (fun (r : Runner.run) -> Counters.misses r.Runner.counters))
  in
  let own = Array.init n (fun j -> misses.(j).(j)) in
  let t =
    Table.create
      (("profile \\ evaluated on", Table.Left)
      :: Array.to_list (Array.map (fun n -> (n, Table.Right)) names))
  in
  let row i label =
    Table.add_row t
      (Table.Text label
      :: List.init n (fun j -> Table.Float (2, Stats.ratio misses.(i).(j) own.(j))))
  in
  Array.iteri row names;
  Table.add_separator t;
  row n "average (paper)";
  Result.report ~id:"crossval"
    ~section:"Cross-validation: layout from one profile, evaluated on all"
    [
      Result.of_table t;
      Result.note "1.00 on the diagonal by construction; off-diagonal near 1 = profiles";
      Result.note "transfer (the popular routines are shared, Figure 2); the averaged";
      Result.note "profile is the safe choice the paper made";
    ]
