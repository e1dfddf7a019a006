(** Process-global registry of named metrics: counters and histograms,
    domain-safe, exported as one JSON snapshot.

    Metrics complement {!Trace_log} spans: spans answer {e when} something
    ran, metrics answer {e how often} and {e how it was distributed}
    (cache hit counters, replay-pass decode rates, per-domain busy
    time).  Unlike tracing, metrics are always on — every recording site
    is far off the simulator's inner loops, so the cost is a handful of
    mutex-protected updates per pipeline stage.

    Handles are get-or-create by name: {!counter} and {!histogram}
    return the existing metric when the name is already registered (a
    name registered as one kind stays that kind — re-registering it as
    another raises [Invalid_argument]).  Counters
    update with a single atomic add and never lock; histograms take the
    registry mutex per update.

    Histograms record float observations in fixed units (their [unit_],
    e.g. seconds): each observation is scaled to an integer micro-unit and
    bucketed by binary magnitude through {!Histogram}, from which
    {!Histogram.percentile} answers p50/p90/p99 at export; exact count,
    sum, min and max are kept alongside, so means are exact, only the
    percentiles are bucket-quantized, and they never leave [[min, max]].

    JSON snapshot shape ({!to_json}):
    {v
    { "counters":   { name: int, ... },
      "histograms": { name: { "unit": string, "count": int,
                              "sum": float, "min": float, "max": float,
                              "mean": float, "p50": float, "p90": float,
                              "p99": float }, ... } }
    v}
    Keys appear in name order, so snapshots are stable across runs and
    domain schedules. *)

type counter
type histogram

val counter : string -> counter
(** Get or create the counter [name] (initially 0). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) atomically. *)

val counter_value : counter -> int

val histogram : ?unit_:string -> string -> histogram
(** Get or create the histogram [name].  [unit_] (default ["seconds"])
    documents what one observation measures; it is stored on first
    creation and echoed in the JSON snapshot. *)

val observe : histogram -> float -> unit
(** Record one observation.  Negative observations clamp to 0. *)

val find_counter : string -> int option
(** The current value of a counter registered under [name], if any
    (for tests and the validate tool; does not create). *)

val to_json : unit -> Json.t
(** Snapshot every registered metric (see the schema above). *)

val reset : unit -> unit
(** Zero every registered metric; registration (names, kinds, units)
    survives.  Tests only — live counters keep whole-process totals. *)
