(** Parameters of the synthetic kernel.  Defaults are calibrated against
    the structural statistics the paper reports for Concentrix 3.0:
    ~0.94 MB of kernel code, ~44 K basic blocks averaging 21.3 bytes,
    ~2 K routines of which ~26% are ever invoked, ~8.5 K executed basic
    blocks over the union of workloads, and the loop populations of
    Figures 4 and 5. *)

type t = {
  seed : int;  (** Master PRNG seed; everything is deterministic in it. *)
  leaf_count : int;  (** Small hot utility routines (Section 3.2.3). *)
  sub_mid_count : int;  (** Lower service layer. *)
  mid_count : int;  (** Upper service layer. *)
  handler_counts : int array;
      (** Per {!Service.t} class (paper order): number of top-level
          handlers reachable from that class's dispatch. *)
  cold_count : int;  (** Routines holding never/rarely-executed code. *)
  zipf_callee : float;  (** Skew of callee popularity within a layer. *)
  loop_iters_plain : (int * float) array;
      (** Mean-iteration choices (value, weight) for loops without calls;
          calibrated so ~50% of loops run <= 6 iterations (Figure 4). *)
  loop_iters_call : (int * float) array;
      (** Same for loops with calls: usually 10 or fewer (Figure 5). *)
}

val default : t
(** The calibrated kernel used by all experiments ([seed = 42]). *)

val small : t
(** A scaled-down kernel for fast unit/integration tests. *)
