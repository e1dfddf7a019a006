(** Replacement-policy sensitivity (beyond the paper): the Base and OptS
    miss rates on a 4-way 8 KB cache under LRU, FIFO and random
    replacement. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
