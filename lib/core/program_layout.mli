(** Whole-program placements: one {!Address_map.t} for the OS image and one
    per application image, combinable into a {!Replay.code_map} for cache
    simulation.

    A layout is an OS map plus application maps, and {!make} is its one
    constructor.  The evaluation's layout levels (Section 5) differ only
    in the maps they pass it:
    - Base: {!base_os} and {!base_apps} (original link order);
    - C-H: {!chang_hwu_os} with {!base_apps};
    - OptS and OptL: an {!Opt.os_layout} map with {!base_apps};
    - OptA: the OptS map with {!opt_apps} (sequences + loop extraction,
      placed from the opposite cache side). *)

type t = private {
  os_map : Address_map.t;
  app_maps : Address_map.t array;
  digest : string;  (** See {!digest}. *)
  code_map : Replay.code_map;  (** See {!code_map}. *)
}
(** Only {!make} builds layouts, so every value's digest and code map are
    the ones of the maps it holds. *)

val app_region_base : int
(** Byte address where application image 1 begins (a multiple of every
    simulated cache size, so cache indexing of applications is unaffected
    by the offset). *)

val app_region_stride : int

val make : os_map:Address_map.t -> app_maps:Address_map.t array -> t
(** [app_maps.(k)] places application image [k+1].
    @raise Invalid_argument if a map was never validated. *)

val base_os : Model.t -> Address_map.t
(** The kernel in link order. *)

val base_apps : Program.t -> Address_map.t array
(** Every application image in link order.  A Base map depends only on
    the image, so each is built once and physically shared by every
    workload and level that uses it. *)

val chang_hwu_os : model:Model.t -> os_profile:Profile.t -> Address_map.t
(** The kernel in Chang–Hwu order for [os_profile]. *)

val opt_apps :
  program:Program.t -> app_profiles:Profile.t array -> params:Opt.params ->
  Address_map.t array
(** OptA's application images: {!Opt.app_layout} of image [k+1] from
    [app_profiles.(k)], staggered by [k] and compensated for the image's
    load-address skew. *)

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
