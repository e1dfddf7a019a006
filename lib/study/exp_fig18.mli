(** Figure 18: alternative setups at a fixed 8 KB / 32 B budget -
    [Sep] (split 4 KB OS + 4 KB application caches), [Resv] (1 KB cache
    reserved for the hottest OS code + 7 KB for the rest), and [Call]
    (the Section 4.4 loop-callee placement) - against Base and OptA. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
