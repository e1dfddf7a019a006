(** Arc-probability statistics (Figure 3): how deterministic the
    transitions between executed basic blocks are.

    Following the paper, the arcs considered are those leaving executed
    blocks: conditional and unconditional branches and fall-throughs (the
    graph's arcs) plus procedure-call transfers (a block that ends in a
    call always transfers to its callee, probability 1). *)

type bin = { lo : float; hi : float; count : int }

val distribution : Profile.t -> Graph.t -> bin array
(** Counts of executed-block outgoing arcs per probability bin, the bins
    split at [0.01; 0.05; 0.1; ...; 0.9; 0.95; 0.99] to match Figure 3's
    x-axis granularity. *)

val fraction_at_least : bin array -> float -> float
(** Fraction of arcs whose bin lies entirely at or above the threshold
    (e.g. [fraction_at_least bins 0.99] reproduces the paper's
    "73.6% of the arcs have probability >= 0.99"). *)

val fraction_at_most : bin array -> float -> float
