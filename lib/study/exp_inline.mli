(** Function-inlining comparison (the alternative Section 4.1 rejects):
    rewrite the kernel with {!Inline.transform}, re-trace, lay it out with
    OptS, and compare against OptS on the original kernel. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
