(** Generation of a single routine's basic-block body into a
    {!Graph.builder}, in {e text order} (hot-path blocks interleaved with
    the seldom-executed special-case code that real systems code branches
    around, per Section 3.2.1 of the paper).

    The builder also records the intrinsic probability of every outgoing
    arc (conditional on its source block executing); these drive the
    workload walker and match the bimodal distribution of Figure 3. *)

type sink
(** Accumulates blocks, arcs and arc probabilities for one program. *)

val sink : Graph.builder -> Prng.t -> sink

val arc_probabilities : sink -> graph:Graph.t -> float array
(** Dense arc-probability array for the frozen graph.  Arcs that were
    given no explicit probability default to a uniform share of their
    source block's remaining mass (in practice: single-arc blocks get
    1.0). *)

val set_arc_probability : sink -> Arc.id -> float -> unit
(** Override/record one arc's probability (used for dispatch arcs). *)

type loop_shape = {
  body_blocks : int;  (** Blocks in the body besides the header; >= 1. *)
  mean_iterations : float;  (** Mean iterations per invocation; >= 1. *)
  loop_call : Routine.id option;  (** Callee invoked from inside the body. *)
}

type shape = {
  routine : Routine.id;  (** Pre-declared owner. *)
  hot_len : int;  (** Hot-path blocks; >= 1.  The last one is the exit. *)
  calls : (int * Routine.id) list;  (** Hot position -> callee. *)
  loops : (int * loop_shape) list;
      (** Hot position -> embedded loop whose header is that hot block.
          Positions must be distinct from call positions and < hot_len-1. *)
  cold_detour_prob : float;  (** Per hot block: chance of a cold side path. *)
  cold_len : Dist.t;  (** Cold-chain length in blocks (>= 1 samples). *)
  cold_call_pool : Routine.id array;  (** Cold chains may call these. *)
  cold_call_prob : float;
  cold_exit_prob : float;  (** Chance a cold chain returns early. *)
  cold_loop_prob : float;
      (** Chance a cold chain contains a small self-iterating block
          (special-case code scanning a table or retrying). *)
  hot_size : Dist.t;  (** Hot block byte sizes. *)
  cold_size : Dist.t;
}

val default_shape : routine:Routine.id -> shape
(** A plain shape: given hot length 8, no calls/loops, paper-calibrated
    size distributions and detour parameters; callers override fields. *)

val hot_size_dist : Dist.t
(** Hot-block sizes: multiples of 4 bytes with mean about 21 bytes (the
    paper reports 21.3-byte average basic blocks). *)

val cold_take_probability : Prng.t -> float
(** Probability of entering a cold detour: log-uniform in about
    [1e-4, 0.16], reproducing the non-bimodal tail of Figure 3. *)

val emit : sink -> shape -> Block.id array
(** Generate the routine body; returns the hot-path block ids in order
    (entry first, exit last).
    @raise Invalid_argument on malformed shapes. *)
