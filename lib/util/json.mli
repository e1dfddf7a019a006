(** Minimal JSON values: enough for the structured experiment reports and
    the run manifest, with no external dependency.

    The emitter/parser pair is designed to round-trip: for every value [v]
    built from finite floats, [of_string (to_string v) = Ok v]
    (test/test_report.ml checks this with QCheck).  Strings are treated as
    byte sequences: bytes below [0x20] are escaped as [\u00XX], everything
    else is passed through verbatim, so arbitrary OCaml strings survive a
    round-trip even when they are not valid UTF-8.  Non-finite floats have
    no JSON spelling and are emitted as [null].

    Every reader of a document this program writes ([Result.of_json],
    [Validate], [Trace_log.of_chrome] and [trace-summary]) decodes it
    with one vocabulary: {!field} reads a field through a converter
    ({!to_int}, {!to_str}, ...), {!fail} reports a violated invariant, and
    {!decode} turns either failure into an [Error].  A decoder is plain
    straight-line code that trusts what {!field} returned:

    {[
      Json.decode (fun () ->
          let n = Json.field Json.to_int "stage" "count" j in
          if n < 1 then Json.fail "stage: count %d < 1" n;
          n)
    ]} *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Serialize.  Default is pretty-printed with two-space indentation;
    [~minify:true] emits a single line with no spaces. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Numbers
    without a fraction or exponent become [Int]; others become [Float].
    Never raises: malformed input, a malformed number included, is an
    [Error] whose string carries the byte offset. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up a field; [None] on anything else. *)

val to_float : t -> float option
(** [Float f] or [Int i] (as a float); [None] otherwise. *)

val to_int : t -> int option

val to_list : t -> t list option

val to_str : t -> string option

val to_obj : t -> (string * t) list option
(** The fields of an [Obj], in document order. *)

(** {1 Decoding} *)

val field : (t -> 'a option) -> string -> string -> t -> 'a
(** [field conv owner name j] is [conv] of [j]'s field [name].  It fails
    (see {!decode}) with ["owner: missing name"] when [j] has no such
    field and ["owner name: wrong type"] when [conv] returns [None].  Pass
    [Option.some] to take the field's value as it is. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Printf-style: abandon the enclosing {!decode} with this message. *)

val decode : (unit -> 'a) -> ('a, string) result
(** [decode f] is [Ok (f ())], or [Error msg] when {!field} or {!fail}
    failed with [msg] inside [f].  Decoders nest: an inner [decode] keeps
    its failures to itself.  {!field} and {!fail} called outside any
    [decode] raise an exception private to this module. *)

val float_repr : float -> string
(** The shortest decimal spelling that parses back to exactly the same
    float; always contains ['.'], ['e'] or ["inf"/"nan"], so emitted
    floats never collide with ints.  (Exposed for the CSV renderer.) *)
