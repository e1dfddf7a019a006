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

type sink = {
  on_exec : image:int -> block:Block.id -> unit;
  on_arc : image:int -> arc:Arc.id -> unit;
      (** Intra-routine arcs taken (profiling; not recorded in traces). *)
  on_invocation_start : Service.t -> unit;
  on_invocation_end : unit -> unit;
}

val trace_sink : Trace.t -> sink
(** Records every event into the trace buffer. *)

val combine_sinks : sink list -> sink

(** {1 One processor} *)

type core
(** What every trace generator shares about one processor: the OS walker with its
    dispatch chooser and each class's current handler, one persistent
    walker per application instance, the per-image word counts, and the
    OS and application word and per-class invocation counts.  Every
    event goes to the core's sink.  The scheduling policy (which class
    runs next, which instance is current, when to stop) is the caller's. *)

val core :
  program:Program.t -> workload:Workload.t -> instances:int array ->
  g_class:Prng.t -> g_os:Prng.t -> g_app:Prng.t -> sink:sink -> core
(** A processor running the given application instances (image indexes,
    1-based into [program]'s apps).  [g_class] draws class choices and
    handlers (the caller may draw its own policy decisions from it too),
    [g_os] the kernel walk's branches; each instance's walker
    takes its own [Prng.split] of [g_app], in instance order.  Nothing is
    drawn here. *)

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
    block, emit the start marker, walk from the class's seed entry to
    completion, emit the end marker. *)

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
  sink:sink -> stats
(** Generate at least [words] instruction words of trace on one core
    running every instance of the workload.  Each invocation repeats the
    previous (class, handler) pair with probability [repeat_prob], or
    draws a fresh class and handler; after it, the current instance
    bursts ({!app_burst}).  Deterministic in [seed] (and the
    program/workload contents). *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * stats
(** {!run} into a fresh trace buffer. *)
