(** A code placement: the assignment of every basic block of one image to
    a byte address, with the region taxonomy used by the paper's Figure 13
    analysis. *)

type region =
  | Main_seq  (** Sequences built with ExecThresh >= 0.01%. *)
  | Self_conf_free  (** The protected hottest-blocks area. *)
  | Loop_area  (** Loop blocks extracted by OptL. *)
  | Other_seq  (** Remaining sequences. *)
  | Cold  (** Never/rarely executed filler. *)

val region_to_string : region -> string

type t

val addr_limit : int
(** 2{^40}: every address is below it, so an address and a block id
    pack into one int key for {!blocks_by_addr}. *)

val create : Graph.t -> t
(** @raise Invalid_argument past 2{^22} blocks, the ids a sort key holds. *)

val place : t -> Block.id -> addr:int -> region:region -> unit
(** @raise Invalid_argument if the block is already placed, the address
    is negative or not below {!addr_limit}, or the map is sealed. *)

val is_placed : t -> Block.id -> bool
val addr : t -> Block.id -> int
(** @raise Invalid_argument if not placed. *)

val region : t -> Block.id -> region
val extent : t -> int
(** One past the highest placed byte. *)

val placed_count : t -> int
val graph : t -> Graph.t

val validate : t -> unit
(** Check completeness (every block placed) and non-overlap in one linear
    scan over the sorted keys of {!blocks_by_addr} (two int arrays as long
    as the graph), which carry the addresses.  The first success records
    {!digest} and seals the map: later {!place} calls raise.
    @raise Failure with a diagnostic otherwise. *)

val back_to_back : Graph.t -> Block.id Seq.t -> region:(Block.id -> region) -> t
(** A validated map with [blocks] placed in order from address 0,
    each block right after the one before it, in region [region b]: the
    Base, Chang-Hwu and Pettis-Hansen placements.
    @raise Invalid_argument if a block repeats.
    @raise Failure if a block of the graph is missing. *)

val digest : t -> string
(** Hex MD5 of the {!addr_array} and {!bytes_array} contents, recorded by
    the first successful {!validate}.
    @raise Invalid_argument if the map was never validated. *)

val addr_array : t -> int array
(** Block id -> address (for cache replay). *)

val bytes_array : t -> int array
(** Block id -> size (a copy). *)

val sealed_addr : t -> int array
(** The sealed map's own block id -> address array, not a copy: sealing
    forbids {!place}, so it never changes again.  Read it, never write it.
    @raise Invalid_argument if the map was never validated. *)

val blocks_by_addr : t -> Block.id array
(** All placed blocks sorted by address, equal addresses by id: a stable
    LSD radix sort of [addr lsl 22 lor id] keys on their address digits. *)
