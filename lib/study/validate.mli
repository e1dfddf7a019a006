(** Checks of the JSON artifacts a run writes, behind [icache-opt validate].

    Every check is an invariant the pipeline guarantees (see {!Manifest}
    for the manifest's): a document that fails one was not written by this
    code, or was written by a broken build of it.

    Every check reads through {!Json.decode}: fields by {!Json.field}, the
    reports by {!Result.of_json} and the trace events by
    {!Trace_log.of_chrome}.  [trace-summary] summarizes only a trace this
    module accepts, so the two reject the same traces in the same words. *)

val json : Json.t -> (string, string) result
(** Validate one document, recognised by its shape:
    - a [--trace] file (it has [traceEvents]): every event decodes, begin
      and end events pair up on each track with non-negative durations and
      none left open, and its embedded metrics snapshot (if any) holds the
      manifest's [metrics] invariants;
    - a bare manifest (it has [schema_version], like [repro --out]'s
      [manifest.json]): exactly the schema-v5 fields, each with its
      invariants;
    - otherwise a repro document: a [reports] list (or one bare report)
      whose every report parses back through {!Result.of_json}, plus its
      [manifest] when present.
    [Ok] carries a one-line summary, [Error] the first violation found. *)

val of_string : string -> (string, string) result
(** {!json} of a parsed document; unparsable text is an [Error]. *)
