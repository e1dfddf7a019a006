(** The last evictor of every cache line, behind the paper's miss
    classification: a miss on a line nobody evicted is cold; otherwise it
    is self-interference when the line's last evictor ran in the same
    domain (OS or application) as the missing fetch, cross-interference
    when it ran in the other. *)

type t

val create : unit -> t

val record : t -> line:int -> os:bool -> unit
(** [line] was just displaced by a fetch of the given domain. *)

val classify : t -> Counters.t -> os:bool -> int -> int
(** Count a miss on a line in the matching [Counters] field and return
    its kind: 0 = cold, 1 = self-interference, 2 = cross-interference. *)
