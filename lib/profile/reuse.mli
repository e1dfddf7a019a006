(** Temporal-locality measurement (Figure 7): OS instruction words fetched
    between two consecutive calls to the same routine within one OS
    invocation; statistics reset across invocations. *)

type t = {
  histogram : Histogram.t;
      (** Word-distance buckets split at {!default_edges}. *)
  last_invocation : int;
      (** Calls not followed by another call to the same routine in the
          same OS invocation (the paper's "Last Inv" column). *)
  calls : int;  (** Total calls observed to the tracked routines. *)
}

val default_edges : int array
(** Decade-ish word distances, 10 to 100,000. *)

val measure : trace:Trace.t -> graph:Graph.t -> routines:Routine.id list -> t
(** Track the given routines (the paper uses the 10 most frequently
    invoked) through a captured trace. *)
