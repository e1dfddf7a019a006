(** Figure 15: (a) total miss rates for 4-32 KB direct-mapped caches with
    32-byte lines under Base, C-H and OptS; (b) estimated execution-speed
    increase of OptS over Base for 10/30/50-cycle miss penalties. *)

val sweep : Context.t -> Config.t array -> float array array array
(** [(sweep ctx configs).(c).(k).(i)]: the miss rate of workload [i] in
    geometry [configs.(c)] under level [k] of Base, C-H and OptS, with
    OptS placed for that geometry's cache size.  One batch replays the
    whole grid (Figures 15 and 17). *)

type point = {
  size_kb : int;
  workload : string;
  base_pct : float;
  ch_pct : float;
  opt_s_pct : float;
  speedups : float array;  (** Per {!Speedup.penalties}. *)
}

val compute : Context.t -> point array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
