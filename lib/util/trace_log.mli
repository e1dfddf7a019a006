(** Structured span tracing and stage timing for the reproduction pipeline.

    The one timing spine of a run.  {!stage} is the only timer the
    pipeline uses: it times a region on the monotonic clock ({!now}),
    adds one call and its seconds to a per-name total ({!stage_totals},
    which the run manifest reports), and — when tracing is on — brackets
    the region with a begin/end event pair stamped with the {e same} two
    clock readings, so a stage's total always equals the summed duration
    of its spans.  {!with_span} records the span without the total, for
    fine-grained regions (one per workload or replay pass) that only the
    timeline needs.

    Events land in per-domain buffers (one unsynchronized buffer per
    domain, created lazily through domain-local storage and registered
    once under a mutex), so recording a span never takes a lock — the
    only synchronized operation per event is one atomic fetch-and-add for
    the global sequence number that orders the merged stream.  Stage
    totals are folded in under a mutex once per call.

    Tracing is {e off} by default and costs a single branch per
    {!with_span} when disabled; simulation results are unaffected either
    way because spans only observe.  Buffers are merged at export time
    ({!events}, {!to_chrome}), which must happen while no domain is
    recording.  {!Parallel}'s pool workers stay alive between fan-outs,
    but an idle worker records nothing, and {!Parallel.map_array} returns
    only after every task of its fan-out has finished (the pool's lock
    orders those writes before the return), so any point between
    fan-outs qualifies.

    Tracks: the main domain records on track 0, and so does any domain
    the pool did not start; pool worker [k] labels itself track [k] via
    {!set_track} when it starts.  A fan-out's caller runs its share of the
    tasks on its own track, so a run under [ICACHE_JOBS=4] shows tracks
    0-3, and every fan-out reuses the same tracks.

    Export: {!to_chrome} emits the Chrome trace-event JSON format
    (["traceEvents"] with [ph:"B"/"E"] pairs, microsecond timestamps,
    one [tid] per track) loadable in Perfetto or [chrome://tracing];
    {!of_chrome} reads it back and {!fold_spans} pairs the events into
    spans for the CLI's [trace-summary] and [validate]. *)

type event = {
  seq : int;  (** global order; within a track this is program order *)
  name : string;
  begin_ : bool;  (** [true] for a span begin, [false] for its end *)
  ts : float;  (** microseconds since process start *)
  track : int;  (** 0 = main domain, 1.. = parallel worker slots *)
  args : (string * Json.t) list;  (** begin events only; ends carry [] *)
}

val now : unit -> float
(** Seconds on the monotonic clock (bechamel's [CLOCK_MONOTONIC] reader):
    the clock behind every timestamp and every timing of the pipeline. *)

val set_enabled : bool -> unit
(** Turn event recording on or off (off at start-up).  Disabling does not
    clear already-recorded events.  Stage totals accumulate either way. *)

val stage : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [stage ?args name f] runs [f ()], adding one call and its duration to
    [name]'s total, and records it as a span (see {!with_span}) when
    tracing is enabled.  The total and the span read the same two clock
    values, and both are recorded even when [f] raises. *)

val with_span :
  ?args:(string * Json.t) list -> ?after:(unit -> (string * Json.t) list) -> string ->
  (unit -> 'a) -> 'a
(** [with_span ?args ?after name f] runs [f ()], bracketing it with a
    begin/end event pair on the calling domain's track when tracing is
    enabled (the end event is recorded even when [f] raises).  The begin
    event carries [args], then [after ()], evaluated once [f] has
    returned, for figures only the work itself yields; a raise skips
    [after].  When disabled this is [f ()] plus one branch. *)

val stage_totals : unit -> (string * int * float) list
(** [(name, calls, seconds)] per stage name, in the order each name
    first finished a call. *)

val set_track : int -> unit
(** Label the calling domain's events with this track id (domain-local;
    {!Parallel}'s pool workers label themselves, everything else records
    on track 0). *)

val events : unit -> event list
(** All recorded events merged across domains, in [seq] order.  Call only
    while no other domain is recording (i.e. between fan-outs). *)

val span_count : unit -> int
(** Number of {e completed} spans recorded so far (end events). *)

val to_chrome : ?extra:(string * Json.t) list -> unit -> Json.t
(** The Chrome trace-event document: [{"traceEvents": [...],
    "displayTimeUnit": "ms", ...extra}].  [extra] fields (for example a
    {!Metrics_registry} snapshot) are appended to the top-level object;
    Chrome and Perfetto ignore keys they do not know. *)

val of_chrome : Json.t -> (event list, string) result
(** Decode a {!to_chrome} document's events in file order ([seq] is the
    position).  Every event needs a string [name], a [ph] of ["B"] or
    ["E"], a numeric [ts] and an integer [tid]; [args] is optional. *)

val fold_spans : ('a -> event -> float -> 'a) -> 'a -> event list -> ('a, string) result
(** Pair each track's begin and end events into spans and fold
    [f acc begin_event duration_us] over them in end order.  Fails when an
    end does not match its track's innermost open span, or when a span is
    left open. *)

val reset : unit -> unit
(** Drop all recorded events and stage totals (the enabled flag is left
    as-is).  Call only between fan-outs, like {!events}. *)
