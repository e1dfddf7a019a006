(** Figure 9: the paper's worked example of sequence placement over four
    timer routines (push_hrtime, read_hrc, check_curtimer, update_hrtimer).

    The flow graph and profile are rebuilt exactly as described; running
    the two threshold passes (0.01, 0.1) then (0, 0) must interleave the
    callees' hot blocks between the caller's blocks in the order the paper
    lists.  The report's [pass1] and [pass2] values are the block labels
    each pass placed, space-separated. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript.  The
    context is unused (the example is self-contained); it is taken so
    that every experiment has the same signature. *)
