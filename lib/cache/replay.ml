type code_map = { addr : int array array; bytes : int array array }

(* The systems fan-out is an array so the per-event loop neither allocates
   nor chases list links: a whole configuration sweep rides one trace
   decode (see Runner.simulate_batch). *)
let feed map systems ~image ~block =
  let addr = map.addr.(image).(block) in
  let bytes = map.bytes.(image).(block) in
  let os = image = 0 in
  for k = 0 to Array.length systems - 1 do
    System.access (Array.unsafe_get systems k) ~os ~image ~block ~addr ~bytes
  done

let run_range ~trace ~map ~systems ~warmup =
  let i = ref 0 in
  Trace.iter_exec trace (fun ~image ~block ->
      feed map systems ~image ~block;
      incr i;
      if !i = warmup then
        (* Keep cache contents, drop the counters gathered so far. *)
        Array.iter System.reset_counters systems)
