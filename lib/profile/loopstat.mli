(** Profile-weighted loop statistics: the measurements behind Table 3 and
    Figures 4 and 5. *)

type info = {
  loop : Loops.t;
  invocations : float;  (** Entries into the loop from outside. *)
  iterations_per_invocation : float;  (** Header executions / entries. *)
  executed_body_bytes : int;  (** Static size of the executed body part. *)
  executed_bytes_with_callees : int;
      (** Figure 5: executed body plus the executed part of every routine
          the body calls, transitively. *)
  dynamic_words : float;  (** Instruction words executed inside the body. *)
}

val analyze : Graph.t -> Profile.t -> Loops.t list -> info list
(** Statistics for every loop whose header executed. *)

val split_by_calls : info list -> info list * info list
(** (without procedure calls, with procedure calls). *)

val dynamic_share_without_calls : Graph.t -> Profile.t -> Loops.t list -> float
(** Table 3, column 2: fraction of dynamic OS instruction words inside
    loops that make no procedure calls (each block counted once even when
    nested). *)

val static_executed_share_without_calls : Graph.t -> Profile.t -> Loops.t list -> float
(** Table 3, column 3. *)

val static_share_without_calls : ?profile:Profile.t -> Graph.t -> Loops.t list -> float
(** Table 3, column 4: call-free loop code as a fraction of the whole
    kernel.  With [profile], only loop blocks the profile executed are
    counted (the paper's columns 3 and 4 are mutually consistent only
    under that reading). *)

val reachable_routines : Graph.t -> Profile.t -> Routine.id -> (Routine.id, unit) Hashtbl.t
(** Routines transitively callable from the given routine through executed
    call blocks (including itself). *)
