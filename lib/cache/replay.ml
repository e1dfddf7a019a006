type code_map = Chunk.code_map = { addr : int array array; bytes : int array array }

(* Member-major: each chunk is resolved once, then every system runs its
   kernel over the whole chunk before the next system starts, so one
   system's tags and eviction map stay cache-resident for 4096 events
   instead of rotating with every other member's on each event. *)
let run_range ~trace ~map ~systems ~warmup =
  Chunk.iter ~trace ~map ~boundary:warmup (fun chunk fed ->
      for k = 0 to Array.length systems - 1 do
        System.run (Array.unsafe_get systems k) chunk
      done;
      if fed = warmup then
        (* Keep cache contents, drop the counters gathered so far. *)
        Array.iter System.reset_counters systems)
