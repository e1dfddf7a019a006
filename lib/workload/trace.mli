(** Compact block-level instruction traces.

    An event is either the execution of a basic block of some image, or an
    OS-invocation boundary marker (used by the temporal-locality analyses,
    which reset across invocations, per Figure 7).  Events pack into single
    OCaml ints, so a captured trace is one growable int array that can be
    replayed against many layouts and cache configurations. *)

type t

type event =
  | Exec of { image : int; block : Block.id }
  | Invocation_start of Service.t
  | Invocation_end

val create : ?capacity:int -> unit -> t

val append : t -> event -> unit

val append_exec : t -> image:int -> block:Block.id -> unit
(** [append t (Exec { image; block })] without building the event. *)

val length : t -> int
(** Total event count, including invocation markers. *)

val exec_count : t -> int
(** Number of [Exec] events only.  Replay warm-up thresholds must come
    from this, not {!length}: the replay counter advances only on
    executions, so a threshold computed from the marker-inclusive length
    would drift with marker density. *)

val images : int
(** Image indices run from 0 (the OS) to [images - 1]. *)

val max_block : t -> int -> int
(** [max_block t image]: the largest block id of [image] that [t]
    executes, or [-1] if it has no execution of [image].  Kept as events
    are appended, so a replay checks its trace's ids against a code map
    once instead of at every event. *)

val iter : t -> (event -> unit) -> unit

val iter_exec : t -> (image:int -> block:Block.id -> unit) -> unit
(** Visit only block executions, one callback per event.  Cache replay
    does not come through here: it reads executions in batches with
    {!read_exec}, through [Chunk]. *)

type cursor
(** A read position in a trace, for consuming its executions in
    batches. *)

val cursor : t -> cursor
(** A cursor at the first event, reading the events the trace holds now:
    events appended later are past its end. *)

val read_exec : cursor -> int array -> int -> int
(** [read_exec c dst n] copies the packed encoding [(block lsl 3) lor
    image] of the next (at most) [n] execution events into
    [dst.(0 .. k-1)], skips invocation markers, advances [c] past them
    and returns [k]; [0] once the trace is exhausted.  [n] is clipped to
    [Array.length dst]. *)

val raw : t -> int -> int
(** The packed integer encoding of event [i] (for serialization). *)

val append_raw : t -> int -> unit
(** Append a packed event.  @raise Invalid_argument if the encoding is
    not decodable. *)
