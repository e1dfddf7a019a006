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

type digest_memo
(** Where a layout keeps its {!digest} once computed. *)

type t = private {
  name : string;
  os_map : Address_map.t;
  app_maps : Address_map.t array;
  os_meta : Opt.result option;  (** Sequence/SCF/loop metadata when built
                                    by the Opt machinery. *)
  digest_memo : digest_memo;
}
(** Only this module builds layouts, so every value starts with an empty
    digest memo of its own. *)

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

val with_os_map : t -> name:string -> Address_map.t -> os_meta:Opt.result option -> t
(** Replace the OS placement (used by the Call/Resv variants).  The result
    has no digest yet. *)

val code_map : t -> Replay.code_map
(** Absolute addresses: OS at 0, application image [k] at
    [app_region_base + (k-1) * app_region_stride]. *)

val digest : t -> string
(** Content digest of the placement exactly as the simulator consumes it
    (the absolute {!code_map} addresses and block sizes, hex-encoded MD5).
    Two layouts with equal digests replay identically under every cache
    configuration, so the digest is a sound memoization key for simulation
    results regardless of how or when the layout was built.

    Computed on the first call and kept in the value, so later calls are a
    field read.  Safe from any domain: two domains racing on the first
    call may both compute it, and both get the same string. *)

val os_loops : Model.t -> Loops.t list
(** Natural loops of the kernel graph ({!Layout_cache.loops} on the
    model's graph: memoized per graph, safe under parallel builds). *)
