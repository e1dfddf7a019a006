(** Replaying a captured block-level trace through one or more cache
    systems under a given code placement.

    Feeding several systems through one call replays the trace {e once}:
    the events are resolved under the placement a {!Chunk.size} chunk at
    a time into one reused chunk, and every cache runs its kernel over
    the whole chunk before the next chunk is read.  So a whole sweep of
    cache configurations shares a single trace decode and code-map
    resolution, and the pass allocates nothing per event.

    The pass flattens its systems into their {!System.caches}, in array
    order, and hands {!Chunk.iter} one {!Sim.reader} per cache: cache
    [k] reads the chunk's stream [k].  Caches of one line size and side
    share each chunk's chain of streams ({!Chunk.stream}), and each
    reads the stage stripped at the most sets it can take: the more
    members of different sizes a pass carries, the fewer entries each
    larger one probes.  Caches are mutually independent, so the result
    for each system is bit-identical to a solo replay. *)

val run_range :
  trace:Trace.t -> map:Chunk.code_map -> systems:System.t array ->
  warmup:int -> unit
(** Feed every execution event to every system, and reset all counters
    after the first [warmup] {e execution} events, where a chunk ends
    (invocation markers do not advance the warm-up counter — compute
    thresholds from {!Trace.exec_count}; [0] keeps every event), so
    reported numbers
    exclude the initial cold start (the paper's traces are mid-execution
    snapshots with negligible first-time misses).  Systems accumulate
    counters from pass to pass. *)
