(** Profile-quality sensitivity (beyond the paper): OptS rebuilt from a
    multiplicatively perturbed profile, evaluated on the clean traces,
    as the perturbation spread grows. *)

type point = { label : string; spread : float; ratio : float }

val spreads : float array

val perturb : seed:int -> spread:float -> Profile.t -> Profile.t

val compute : Context.t -> point array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
