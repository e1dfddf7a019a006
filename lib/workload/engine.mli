(** The trace engine: interleaves application execution with OS
    invocations, reproducing the reference streams the paper's hardware
    monitor captured.

    Each OS invocation picks a service class from the workload mix, enters
    the class's seed routine and walks the kernel graph to completion
    (choosing the handler at the seed's dispatch block from the workload's
    handler weights).  Between invocations the current application instance
    runs; burst lengths self-regulate so the OS share of fetched words
    converges to [workload.os_fraction].  Every [switch_period] invocations
    a context switch (class [Other], handler 0) is forced and the next
    runnable instance is scheduled.

    One processor is one {!core}.  {!run} drives a single core with the
    uniprocessor policy above; {!Multiproc.run} drives one core per CPU
    with its own. *)

type stats = {
  total_words : int;  (** Instruction words fetched. *)
  os_words : int;
  app_words : int;
  invocations : int array;  (** Per service class. *)
  context_switches : int;
}

type counts = {
  blocks : float array array;  (** Per image: executions of each {!Block.id}. *)
  arcs : float array array;  (** Per image: traversals of each {!Arc.id}. *)
}
(** What a capture counts besides its trace: the raw profile of each
    image (index 0 = OS).  Every count is a whole number. *)

val counts : Program.t -> counts
(** All zero, shaped for the program's images. *)

(** {1 One processor} *)

type core
(** What every trace generator shares about one processor: the OS walker with its
    dispatch chooser and each class's current handler, one persistent
    walker per application instance, the per-image word counts, and the
    OS and application word and per-class invocation counts.  The core
    appends every event to its trace as a packed int and bumps its
    image's block count; each walker bumps its image's arc counts.  The
    scheduling policy (which class
    runs next, which instance is current, when to stop) is the caller's. *)

val core :
  program:Program.t -> workload:Workload.t -> instances:int array ->
  g_class:Prng.t -> g_os:Prng.t -> g_app:Prng.t -> trace:Trace.t -> counts:counts ->
  core
(** A processor running the given application instances (image indexes,
    1-based into [program]'s apps).  [g_class] draws class choices and
    handlers (the caller may draw its own policy decisions from it too),
    [g_os] the kernel walk's branches; each instance's walker
    takes its own [Prng.split] of [g_app], in instance order.  Nothing is
    drawn here.  The core fills [trace] and adds to [counts]. *)

val os_words : core -> int
val app_words : core -> int

val invocations : core -> int array
(** Invocations per service class so far (the live array). *)

val draw_invocation : core -> int * int
(** A fresh (class index, handler index) pair: the class drawn from the
    workload mix, then its handler from the workload's handler weights
    (both from [g_class]; no handler draw when all its weights are
    zero). *)

val invoke : core -> int -> handler:int -> unit
(** One OS invocation of the class: select [handler] at its dispatch
    block, append the start marker, walk from the class's seed entry to
    completion, append the end marker. *)

val app_burst : core -> slot:int -> bool
(** The OS-fraction controller: run instance [slot mod (instance count)]
    for the application words owed since the last burst (enough to bring
    the OS share back to [workload.os_fraction]), capped at 30 000 words
    so that a burst cannot starve OS activity.
    Each burst resumes the instance's walker, restarting its main routine
    when it returns.  [false], with nothing run, when no words are owed,
    the core has no instances or the workload is all OS. *)

(** {1 The uniprocessor engine} *)

val run :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  counts:counts -> Trace.t * stats
(** Generate at least [words] instruction words of trace on one core
    running every instance of the workload, adding its block and arc
    counts to [counts].  Each invocation repeats the
    previous (class, handler) pair with probability [repeat_prob], or
    draws a fresh class and handler; after it, the current instance
    bursts ({!app_burst}).  Deterministic in [seed] (and the
    program/workload contents). *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * stats
(** {!run} with fresh counts, which are dropped. *)
