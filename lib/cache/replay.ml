type code_map = Chunk.code_map = { addr : int array array; bytes : int array array }

(* Member-major: each chunk is resolved once, then every system runs its
   kernel over the whole chunk before the next system starts, so one
   system's tags and eviction map stay cache-resident for 4096 events
   instead of rotating with every other member's on each event. *)
let run_range ~trace ~map ~systems ~warmup =
  let readers = Array.map System.readers systems in
  let first = Array.make (Array.length systems) 0 in
  for k = 1 to Array.length systems - 1 do
    first.(k) <- first.(k - 1) + Array.length readers.(k - 1)
  done;
  let readers = Array.concat (Array.to_list readers) in
  Chunk.iter ~trace ~map ~boundary:warmup ~readers (fun chunk fed ->
      for k = 0 to Array.length systems - 1 do
        System.run (Array.unsafe_get systems k) chunk ~first:(Array.unsafe_get first k)
      done;
      if fed = warmup then
        (* Keep cache contents, drop the counters gathered so far. *)
        Array.iter System.reset_counters systems)
