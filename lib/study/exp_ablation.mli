(** Ablation study (not a paper figure): remove one OptS ingredient at a
    time - the descending threshold schedule, the four seeds, the
    caller/callee interleaving, the SelfConfFree area - and measure the
    miss cost on the paper's 8 KB direct-mapped cache. *)

type variant = {
  name : string;
  what : string;
  misses : int;  (** Sum over the four workloads. *)
  vs_base : float;
  vs_opt_s : float;
}

val compute : Context.t -> int * variant list
(** (Base misses, variants; the first variant is the full OptS). *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
