(** Figure 2: number of references to OS code as a function of code
    virtual address (1 KB bins), one chart per workload; shows that the
    references concentrate in narrow shared regions. *)

type result = {
  workload : string;
  bins : int array;  (** Reference words per 1 KB of Base address space. *)
  touched_kb : int;  (** Bins with any references. *)
  top10_pct : float;  (** Share of references in the 10 busiest bins. *)
}

val compute : Context.t -> result array

val overlap_pct : result array -> float
(** Share of each workload's busiest 20 bins also busy in every other
    workload (averaged) - the paper's "peaks are in similar positions". *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
