(** Shared experimental state: the generated kernel, the four workloads
    with captured traces, and the per-workload and averaged profiles the
    layouts are built from.  Building a context is the expensive step;
    every experiment then reuses it. *)

type t = {
  model : Model.t;
  pairs : (Workload.t * Program.t) array;  (** Paper order. *)
  traces : Trace.t array;
  stats : Engine.stats array;
  os_profiles : Profile.t array;
  avg_os_profile : Profile.t;
  avg_app_profile : App_model.t -> Profile.t;
      (** Average profile of an application across the workloads running
          it (physical identity of the app model). *)
  spec : Spec.t;
      (** The kernel spec this context (or the one it was derived from)
          was generated from. *)
  words : int;
  seed : int;  (** Engine seed (see {!create}). *)
  key : string;
      (** Trace identity: digest of (spec, words, seed) for {!create}, of
          the model's content, words and seed for {!derive}.  Traces (and
          hence every simulation result) are a pure function of these, so
          the key content-addresses this context in {!Sim_cache} keys. *)
}

val create : spec:Spec.t -> words:int -> seed:int -> ?jobs:int -> unit -> t
(** The kernel of [spec], traced for [words] instruction words per
    workload under engine seed [seed].  The per-workload trace captures
    run on up to [jobs] domains (default {!Parallel.default_jobs}); the
    result is bit-identical for every job count.  The kernel is
    generated once per spec and process (a {!Memo} named
    [kernel_model], keyed on the spec's digest), so contexts of one spec
    share their [model] physically.
    @raise Invalid_argument if [words < 1]. *)

val derive : t -> model:Model.t -> seed:int -> t
(** The same four workloads and word budget traced on another kernel
    (an {!Inline.transform}ed one), workload [i] with engine seed
    [seed + i], profiles averaged as by {!create}.  Its key digests
    everything the traces depend on (the model's graph, arc
    probabilities, seeds, dispatches and handlers, [words] and [seed]),
    so its layouts and replays are memoized like any context's. *)

val workload_count : t -> int
val key : t -> string
val workload_names : t -> string array
val os_graph : t -> Graph.t
val os_loops : t -> Loops.t list
