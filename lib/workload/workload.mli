(** Workload specifications: how often each OS service class is invoked
    (Table 1), which handlers each class's invocations exercise, which
    application instances time-share the processor, and the OS share of
    instruction fetches (Figure 12, leftmost chart). *)

type t = {
  name : string;
  mix : float array;
      (** Probability of each {!Service.t} class per invocation; sums
          to 1. *)
  handler_weights : float array array;
      (** Per class: weight of each handler index (need not be
          normalized). *)
  app_instances : int array;
      (** Image index (1-based into the program's apps) per runnable
          process. *)
  os_fraction : float;  (** Target OS share of fetched words, in (0, 1]. *)
  switch_period : int;
      (** A context-switch invocation is forced every [switch_period]
          invocations (0 = never). *)
  repeat_prob : float;
      (** Probability that an invocation repeats the previous (class,
          handler) pair: interrupts and faults arrive in bursts (clock
          ticks, page-fault storms), giving OS paths the short reuse
          distances the paper measures in Figure 7. *)
}

val focused_weights :
  Prng.t -> n:int -> used:int -> common_weight:float -> float array
(** A per-class handler-weight vector: handler 0 (the path common to all
    workloads: clock interrupt, common fault case, ...) gets
    [common_weight]; [used - 1] further handlers are drawn deterministically
    and given Zipf-decaying weights; the rest get 0. *)

val trfd_4 : Model.t -> t
val shell : Model.t -> t

val standard_programs : Model.t -> (t * Program.t) array
(** The four paper workloads, in paper order, each paired with its
    {!Program.t} (OS + the right app images). *)
