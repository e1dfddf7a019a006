(** Discrete and continuous sampling distributions used by the synthetic
    kernel and workload generators. *)

type t
(** A distribution over non-negative integers (sampled with a {!Prng.t}). *)

val uniform_int : int -> int -> t
(** [uniform_int lo hi] is uniform over [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val zipf : n:int -> s:float -> t
(** [zipf ~n ~s] samples ranks in [\[0, n)] with probability proportional to
    [1 / (rank+1)^s].  Sampling is O(log n) by binary search over the
    precomputed CDF.  @raise Invalid_argument if [n <= 0]. *)

val weighted : (int * float) array -> t
(** Explicit finite distribution: values with non-negative weights. *)

val scaled : t -> float -> t
(** [scaled d k] samples [d] and multiplies by [k] (rounded to nearest). *)

val sample : t -> Prng.t -> int
(** Draw one sample. *)

val mean_estimate : t -> Prng.t -> int -> float
(** [mean_estimate d g n] is the empirical mean of [n] samples (testing
    aid). *)

val zipf_mass : n:int -> s:float -> rank:int -> float
(** Exact probability mass the {!zipf} distribution assigns to [rank]. *)
