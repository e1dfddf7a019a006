(** Table 4: the (ExecThresh, BranchThresh) schedule and the length (basic
    blocks and bytes) of the sequence each pass generates on the averaged
    profile. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
