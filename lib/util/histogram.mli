(** Fixed-edge bin counts: the paper's distribution figures (loop
    iteration counts and loop sizes, Figures 4 and 5; reuse distances,
    Figure 7). *)

type t

val explicit : int array -> t
(** [explicit edges] uses buckets [(-inf, e0), [e0, e1), ... [e_last, inf)].
    [edges] must be strictly increasing.  There are [length edges + 1]
    buckets. *)

val add : t -> int -> unit
(** Record one sample. *)

val total : t -> int

val to_list : t -> (string * int) list
(** All (label, count) pairs in bucket order. *)

val cumulative_fraction_below : t -> int -> float
(** Fraction of samples in buckets [0 .. i] inclusive. *)

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s counts into [dst].
    @raise Invalid_argument if the edges differ. *)
