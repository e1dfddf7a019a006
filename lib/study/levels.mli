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
(** One program layout per workload, in workload order ([params] defaults
    to [Opt.params ()]), built as the [levels_build] {!Trace_log.stage}.
    Construction is staged through {!Layout_cache}, whose memos are the
    only layout caching: experiments that rebuild a level, and distinct
    parameter sets (a cache-size sweep, a SelfConfFree sweep, OptS vs OptL
    vs OptA), share every stage whose inputs did not change, so a rebuild
    re-runs no placement algorithm and only assembles the per-workload
    records.  {!Layout_cache.clear} makes the next build cold.  The
    per-workload placements are built in parallel under [--jobs]. *)

val opt_result : Context.t -> ?params:Opt.params -> level -> Opt.result
(** The OS placement's sequences, SelfConfFree set and loop blocks, as
    {!build} makes them (every workload shares them): the one source for
    reports on an Opt level's construction.  It assembles no layout, so
    after [build ctx level] it costs only stage-memo hits.
    @raise Invalid_argument for [Base] and [CH]. *)

val os_variant : Context.t -> Address_map.t -> Program_layout.t array
(** One layout per workload: [os_map] with the program's Base application
    maps ({!Program_layout.make}).  Every level but OptA is the
    [os_variant] of its OS placement, and so is an experiment's OS-only
    variant. *)

val opt_variant :
  Context.t -> ?schedule:Schedule.pass list -> ?follow_calls:bool ->
  ?profile:Profile.t -> ?params:Opt.params -> unit -> Program_layout.t array
(** {!os_variant} of an OS placement that {!Opt.os_layout} builds from
    [profile] (default: the averaged OS profile) and [params] (default
    [Opt.params ()]): the OS-only OptS variants of the ablation,
    cross-validation and noise studies. *)

val build_uncached :
  Context.t -> params:Opt.params -> level -> Program_layout.t array
(** {!build} without the [levels_build] stage.  The level's OS placement
    is built once, on the calling domain; then the workloads' layouts
    are assembled around it, fanned out over the [--jobs] domains (for
    OptA, with each program's {!Program_layout.opt_apps}). *)
