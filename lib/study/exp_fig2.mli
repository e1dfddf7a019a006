(** Figure 2: number of references to OS code as a function of code
    virtual address (1 KB bins), one chart per workload; shows that the
    references concentrate in narrow shared regions. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
