(** Figure 9: the paper's worked example of sequence placement over four
    timer routines (push_hrtime, read_hrc, check_curtimer, update_hrtimer).

    The flow graph and profile are rebuilt exactly as described; running
    the two threshold passes (0.01, 0.1) then (0, 0) must interleave the
    callees' hot blocks between the caller's blocks in the order the paper
    lists. *)

type result = {
  pass1 : string list;  (** Block labels placed by the (0.01, 0.1) pass. *)
  pass2 : string list;  (** Block labels placed by the (0, 0) pass. *)
}

val expected_pass1 : string list
val expected_pass2 : string list

val compute : unit -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript.  The
    context is unused (the example is self-contained); it is taken so
    that every experiment has the same signature. *)
