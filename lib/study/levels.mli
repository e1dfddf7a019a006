(** The evaluation's layout levels and their per-workload program
    layouts.  OS placements are shared across workloads (the paper builds
    them from the averaged profile); application placements depend on the
    workload's app images. *)

type level = Base | CH | OptS | OptL | OptA

val all : level array
val to_string : level -> string

val of_string : string -> (level, string) result
(** Case-insensitive parse of the {!to_string} names (plus ["ch"] for
    ["C-H"]); [Error] carries a human-readable message listing the valid
    spellings.  The single point of truth for every CLI level argument. *)

val build : Context.t -> ?params:Opt.params -> level -> Program_layout.t array
(** One program layout per workload, in workload order.  Memoized on
    ({!Context.key}, level, params) in a {!Memo} named [levels] (so its
    lookups count as [levels.hits/.misses/.lookups]): experiments that
    rebuild the same level share one layout array instead of re-running
    the placement algorithms.  Underneath, construction is staged through
    {!Layout_cache}, so even distinct memo keys (a cache-size sweep, a
    SelfConfFree sweep, OptS vs OptL vs OptA) share the stages whose
    inputs did not change, and the per-workload placements of a miss are
    built in parallel under [--jobs]. *)

val opt_result : Context.t -> ?params:Opt.params -> level -> Opt.result
(** The OS placement's sequences, SelfConfFree set and loop blocks, as
    {!build} made them (every workload shares them): the one source for
    reports on an Opt level's construction.
    @raise Invalid_argument for [Base] and [CH]. *)

val os_variant : Context.t -> name:string -> Address_map.t -> Program_layout.t array
(** The [Base] level's layouts with the OS placement replaced by [os_map]
    ({!Program_layout.with_os_map}): an experiment's OS-only variant. *)

val clear : unit -> unit
(** Drop every memoized layout array (tests that need a cold run); the
    [levels] counters keep their totals. *)

val build_uncached :
  Context.t -> params:Opt.params -> level -> Program_layout.t array
(** The construction behind {!build}, bypassing the whole-array memo (the
    staged {!Layout_cache} layer still applies unless disabled).  The
    workloads fan out over the [--jobs] domains; the one that reaches the
    shared OS placement first builds it and the others wait for it
    (the stage memos are single-flight).  Exposed for the
    staged-equals-monolithic equivalence tests. *)
