(** Text serialization of execution profiles: the paper's deployment
    workflow is profile-once, lay-out-later, so profiles must survive the
    tracing session.  Sparse format (zero entries omitted), fractional
    counts round-trip exactly enough for averaged profiles.  The [shape]
    header ties a profile to its graph's block/arc counts. *)

val to_string : graph:Graph.t -> Profile.t -> string

val of_string : graph:Graph.t -> string -> Profile.t
(** @raise Invalid_argument on malformed input, negative counts, indices
    out of range, or a shape mismatch with [graph]. *)

val save : string -> graph:Graph.t -> Profile.t -> unit

val load : string -> graph:Graph.t -> Profile.t

val write_channel : out_channel -> graph:Graph.t -> Profile.t -> unit
