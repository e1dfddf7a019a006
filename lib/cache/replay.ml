(* The systems flattened into their sub-caches: cache [k] reads reader
   [k]'s stream, so the order is decided here alone.  Member-major: each
   chunk is resolved once, then every cache runs its kernel over the
   whole chunk before the next cache starts, so one cache's tags and
   eviction map stay cache-resident for 4096 events instead of rotating
   with every other member's on each event. *)
let run_range ~trace ~map ~systems ~warmup =
  let caches = Array.concat (Array.to_list (Array.map System.caches systems)) in
  let readers = Array.map (fun (s, side) -> Sim.reader s side) caches in
  Chunk.iter ~trace ~map ~boundary:warmup ~readers (fun chunk fed ->
      for k = 0 to Array.length caches - 1 do
        Sim.run (fst (Array.unsafe_get caches k)) (Chunk.stream chunk k)
      done;
      if fed = warmup then
        (* Keep cache contents, drop the counters gathered so far. *)
        Array.iter (fun (s, _) -> Sim.reset_counters s) caches)
