(** Whole-program placements: one {!Address_map.t} for the OS image and one
    per application image, combinable into a {!Replay.code_map} for cache
    simulation.

    The evaluation's layout levels (Section 5):
    - [base]: original link order for OS and applications;
    - [chang_hwu]: C-H layout for the OS, applications unchanged;
    - [opt_s]: sequences + SelfConfFree area, no loop extraction;
    - [opt_l]: [opt_s] plus loop extraction;
    - [opt_a]: [opt_s] for the OS plus optimized application layouts
      (sequences + loop extraction, placed from the opposite cache side). *)

type t = private {
  os_map : Address_map.t;
  app_maps : Address_map.t array;
  os_meta : Opt.result option;  (** Sequence/SCF/loop metadata when built
                                    by the Opt machinery. *)
  digest : string;  (** See {!digest}. *)
  code_map : Replay.code_map;  (** See {!code_map}. *)
}
(** Only this module builds layouts, so every value's digest and code map
    are the ones of the maps it holds. *)

val app_region_base : int
(** Byte address where application image 1 begins (a multiple of every
    simulated cache size, so cache indexing of applications is unaffected
    by the offset). *)

val app_region_stride : int

val base : model:Model.t -> program:Program.t -> t

val chang_hwu : model:Model.t -> program:Program.t -> os_profile:Profile.t -> t

val opt_s :
  model:Model.t -> program:Program.t -> os_profile:Profile.t ->
  ?params:Opt.params -> unit -> t

val opt_l :
  model:Model.t -> program:Program.t -> os_profile:Profile.t ->
  ?params:Opt.params -> unit -> t

val opt_a :
  model:Model.t -> program:Program.t -> os_profile:Profile.t ->
  app_profiles:Profile.t array -> ?params:Opt.params -> unit -> t
(** [app_profiles.(k)] profiles application image [k+1]. *)

val with_os_map : t -> Address_map.t -> t
(** Replace the OS placement (the experiments' OS-map variants); the
    result carries no [os_meta].
    @raise Invalid_argument if the map was never validated. *)

val code_map : t -> Replay.code_map
(** Absolute addresses: OS at 0, application image [k] at
    [app_region_base + (k-1) * app_region_stride] plus a per-image skew.

    Built once, when the layout is, and returned as is by every call.
    Its arrays are shared and read-only (see {!Chunk.code_map}): the OS
    row is the sealed OS map's own {!Address_map.sealed_addr} array, every
    [bytes] row is the image graph's {!Graph.block_sizes}, and only the
    application rows are arrays of this layout's own. *)

val digest : t -> string
(** Content digest of the placement exactly as the simulator consumes it:
    the hex MD5 of the images' {!Address_map.digest}s in image order.  Each
    of those covers an image's addresses and block sizes, and image bases
    depend only on the index, so two layouts with equal digests have equal
    {!code_map}s and replay identically under every cache configuration.
    The digest is thus a sound memoization key for simulation results
    regardless of how or when the layout was built.

    Computed when the layout is built from the maps' sealed digests, so a
    map shared by many layouts is hashed once per process. *)

val os_loops : Model.t -> Loops.t list
(** Natural loops of the kernel graph ({!Layout_cache.loops} on the
    model's graph: memoized per graph, safe under parallel builds). *)
