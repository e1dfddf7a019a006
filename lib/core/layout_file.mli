(** Text serialization of code placements (a linker-map-like format): one
    line per block, sorted by address, carrying the address, size, block
    id, Figure 13 region, and owning routine name.  Round-trips through
    {!to_string} / {!of_string} (and {!save} / {!load} for files), so a
    layout computed once can be archived, inspected with text tools, and
    re-simulated later. *)

val to_string : graph:Graph.t -> Address_map.t -> string

val of_string : graph:Graph.t -> string -> Address_map.t
(** Parses and validates (every block placed exactly once, no overlap).
    @raise Invalid_argument on malformed input, a block/size mismatch
    with [graph] or a line {!Address_map.place} refuses (an address out
    of range, a block placed twice); @raise Failure if the resulting
    placement is invalid. *)

val save : string -> graph:Graph.t -> Address_map.t -> unit

val load : string -> graph:Graph.t -> Address_map.t

val write_channel : out_channel -> graph:Graph.t -> Address_map.t -> unit
