(** Figure 1: misses on OS code in a 16 KB direct-mapped cache as a
    function of code virtual address (TRFD+Make), split into total,
    self-interference and interference-with-application components, in
    1 KB address bins. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
