(* Software layout vs hardware victim cache (Jouppi 1990).

   The paper shows OptS beating higher associativity (Figure 17b) and the
   Sep/Resv organizations (Figure 18).  The victim cache is the remaining
   classic hardware answer to conflict misses: does a few-line
   fully-associative buffer next to the direct-mapped cache make the
   software layout unnecessary?  And do the two compose? *)

type row = {
  workload : string;
  rates : (string * float) list;
      (** setup name -> miss rate, for Base / Base+victim(4/8/16) /
          OptS / OptS+victim(8). *)
}

let setups =
  [
    ("Base", Levels.Base, None);
    ("Base+V4", Levels.Base, Some 4);
    ("Base+V8", Levels.Base, Some 8);
    ("Base+V16", Levels.Base, Some 16);
    ("OptS", Levels.OptS, None);
    ("OptS+V8", Levels.OptS, Some 8);
  ]

let compute (ctx : Context.t) =
  let main = Config.make ~size_kb:8 () in
  let runs =
    Runner.batch ctx
      ~members:
        (Array.of_list
           (List.map
              (fun (_, level, entries) ->
                ( Levels.build ctx level,
                  match entries with
                  | None -> System.Unified main
                  | Some entries -> System.Victim { main; entries } ))
              setups))
      ()
  in
  Array.mapi
    (fun i ((w : Workload.t), _) ->
      {
        workload = w.Workload.name;
        rates =
          List.mapi
            (fun m (name, _, _) -> (name, Counters.miss_rate runs.(m).(i).Runner.counters))
            setups;
      })
    ctx.Context.pairs

let report ctx =
  let rows = compute ctx in
  let t =
    Table.create
      (("Workload", Table.Left)
      :: List.map (fun (n, _, _) -> (n ^ " %", Table.Right)) setups)
  in
  Array.iter
    (fun r ->
      Table.add_row t
        (r.workload
        :: List.map (fun (_, rate) -> Table.cell_f ~decimals:3 (100.0 *. rate)) r.rates))
    rows;
  Result.report ~id:"victim"
    ~section:"Victim cache vs software layout (8KB DM main, 32B lines)"
    [
      Result.of_table t;
      Result.note
        "the buffer soaks up ping-pong conflicts cheaply, but OptS removes them at";
      Result.note "the source; the two compose (OptS+V8 is the floor of every row)";
    ]
