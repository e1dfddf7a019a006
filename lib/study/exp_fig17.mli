(** Figure 17: miss rates of Base, C-H and OptS while varying (a) the line
    size of an 8 KB direct-mapped cache from 16 to 128 bytes, and (b) its
    associativity from 1 to 8 ways. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
