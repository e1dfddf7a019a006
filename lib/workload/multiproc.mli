(** Multiprocessor tracing.

    The paper's testbed is a 4-CPU Alliant FX/8 with one instruction cache
    per processor; every reported number is the average of the four
    processors.  [run] traces [cpus] processors time-sharing the same
    kernel image: each CPU interleaves its own application instances (the
    workload's instances are dealt round-robin across CPUs) with OS
    invocations, and cross-processor interrupts couple the streams - with
    probability [xcall_prob] an invocation broadcasts a forced
    interrupt-class invocation (the cross-processor handler) to every
    other CPU, the mechanism behind TRFD_4's interrupt-dominated mix.

    Each CPU is one {!Engine.core}, so the kernel walk, handler dispatch,
    word counts and OS-fraction burst controller are {!Engine.run}'s.
    The scheduling policy is this machine model's own and differs from
    {!Engine.run}'s: every invocation draws a fresh class and handler
    (the workload's [repeat_prob] is not used), no context switch is
    ever forced (its [switch_period] is not used), and each burst runs
    the CPU's next instance in turn.  The CPUs' PRNG streams are
    [Prng.split]s of one master seeded with [seed], three per CPU in CPU
    order (class and handler choices, kernel walk, application walks);
    the furthest-behind CPU always steps next. *)

type cpu = {
  trace : Trace.t;
  mutable os_words : int;
  mutable app_words : int;
  invocations : int array;  (** Per service class. *)
  mutable forced : int;  (** Cross-processor interrupts served. *)
  mutable pending_xcalls : int;
}

type result = { cpus : cpu array; xcalls_sent : int }

val words : cpu -> int
(** Instruction words traced so far on this CPU. *)

val run :
  program:Program.t -> workload:Workload.t -> cpus:int -> words_per_cpu:int ->
  seed:int -> ?xcall_prob:float -> unit -> result
(** Deterministic in [seed].  @raise Invalid_argument if [cpus < 1]. *)
