let layout g ~order =
  if Array.length order <> Graph.routine_count g then
    invalid_arg "Base.layout: order must list every routine";
  Address_map.back_to_back g
    (Seq.concat_map
       (fun r -> Array.to_seq (Graph.routine g r).Routine.blocks)
       (Array.to_seq order))
    ~region:(fun _ -> Address_map.Cold)
