(** Content-addressed caches for the staged layout pipeline.

    {!Opt.layout} decomposes into stages with strictly smaller input sets
    than the whole layout:

    - {e sequences} depend only on (graph, profile, schedule, seeds,
      follow_calls) — not on cache geometry, so an entire cache-size or
      SelfConfFree sweep shares one sequence construction;
    - {e scf} selection depends only on (graph, profile, loops, cutoff);
    - {e loop_mark} (the {!Loopstat.analyze} pass behind OptL's loop
      extraction) depends only on (graph, profile, loops);
    - {e place} — the final cursor placement — is the only stage that
      consumes the full parameter record.

    {!Program_layout} adds two more stages: {e base} (a Base placement of
    the OS or of an application image, keyed on graph and routine order)
    and {e chang_hwu} (the C-H placement, keyed on graph and profile) —
    both used to be rebuilt per workload despite identical inputs.

    Each stage is a {!Memo} named [layout_cache.<stage>], keyed on a
    digest of exactly the inputs that stage consumes.  Graphs and frozen
    profiles carry their own digests ({!Graph.digest}, {!Profile.digest}),
    computed once per value on first use, so keying a stage costs a few
    field reads and one small hash.  Its hit, miss and
    lookup counts live in the metrics registry, and each build on a miss
    runs as the {!Trace_log.stage} of the same name, so the run manifest
    reports both.  The memos are single-flight: racing callers of one
    key wait for the first one's build instead of repeating it, so every
    stage value is built once and shared, whatever the domain schedule.

    The module also owns natural-loop detection for {e both} OS and
    application graphs ({!loops}), replacing the unsynchronized global
    that {!Program_layout} used to mutate from parallel builds. *)

val loops : Graph.t -> Loops.t list
(** [Loops.find g], memoized on [Graph.digest g] in the {!Memo} named
    [layout_cache.loops] (not a stage of {!stage_stats}): the first
    caller for a graph runs detection and racing callers wait for its
    list, so detection runs once per graph content and repeated calls
    return the {e same} list, including across domains.  Each detection
    and its digest run as the {!Trace_log.stage} of the memo's name. *)

val loops_digest : Graph.t -> Loops.t list -> string
(** Content digest of a loop set.  When [loops] is the canonical
    {!loops}[ g] list the digest is memoized with it; hand-built loop
    sets are digested on every call.  Looks [g] up in the loop memo
    (detecting its loops on first use). *)

type stats = Memo.stats = { hits : int; misses : int }
(** Build time is the [layout_cache.<stage>] timing stage's (see
    {!Trace_log.stage_totals}).  On a cold build, an outer stage's seconds
    include the inner stages it triggered (stage timings nest, exactly
    like the manifest's [levels_build] envelope). *)

type 'a stage

val stage : string -> 'a stage
(** A new named stage, reported by {!stage_stats} in creation order.
    Create each stage once, at module initialization. *)

val find_or_build : 'a stage -> key:string -> (unit -> 'a) -> 'a
(** {!Memo.find_or_build} on the stage, timing each build as the stage
    [layout_cache.<stage>]. *)

val stage_stats : unit -> (string * stats) list
(** Per-stage counts in stage creation order (process totals). *)

val clear : unit -> unit
(** Drop every cached value, including memoized loops, so the next layout
    build is cold: the one reset for all layout caching (no layer above
    the stages keeps layouts of its own).  The counts keep their process
    totals. *)
