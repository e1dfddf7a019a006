(** Bucketed counters used for every "distribution" figure in the paper
    (arc probabilities, loop iteration counts, reuse distances, per-address
    miss maps). *)

type t

val log2 : max_exp:int -> t
(** [log2 ~max_exp] buckets by binary magnitude: bucket [i] holds samples
    [v] with [2^i <= v+1 < 2^(i+1)] for [i < max_exp]; larger samples fall
    in the last bucket.  Bucket 0 therefore holds [v = 0]. *)

val explicit : int array -> t
(** [explicit edges] uses buckets [(-inf, e0), [e0, e1), ... [e_last, inf)].
    [edges] must be strictly increasing.  There are [length edges + 1]
    buckets. *)

val add : t -> int -> unit
(** Record one sample. *)

val add_many : t -> int -> int -> unit
(** [add_many h v n] records [v] with multiplicity [n]. *)

val bucket_count : t -> int
val total : t -> int

val to_list : t -> (string * int) list
(** All (label, count) pairs in bucket order. *)

val cumulative_fraction_below : t -> int -> float
(** Fraction of samples in buckets [0 .. i] inclusive. *)

val percentile : t -> float -> float
(** [percentile h p] (with [p] clamped into [\[0,1\]]) estimates the value
    at rank [p * total] by walking the cumulative counts and interpolating
    linearly inside the bucket containing the rank; open-ended buckets
    (below the first explicit edge, at or above the last, the log2
    overflow bucket) answer with their finite boundary.  [0.] on an empty
    histogram.  Exact for single-bucket distributions; otherwise accurate
    to the bucket width. *)

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s counts into [dst].
    @raise Invalid_argument if the bucketings differ. *)

val copy_empty : t -> t
(** Same bucketing, zero counts. *)
