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
    e.g. seconds) and keep every one: the pipeline observes a few hundred
    values per histogram per run (one per replay pass, one per runner per
    fan-out).  The snapshot computes count, sum, min, max and mean from
    them, and p50/p90/p99 as nearest-rank observations (the smallest
    observation with at least that share of the observations at or below
    it), so every reported statistic is exact and every percentile is a
    value that was observed.

    JSON snapshot shape ({!to_json}):
    {v
    { "counters":   { name: int, ... },
      "histograms": { name: { "unit": string, "count": int,
                              "sum": float, "min": float, "max": float,
                              "mean": float, "p50": float, "p90": float,
                              "p99": float }, ... } }
    v}
    Keys appear in name order, so snapshots are stable across runs and
    domain schedules.  Its readers ([Validate], which checks every field
    above, and [trace-summary]) decode it through {!Json.decode}. *)

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
