(** Sequence construction (Sections 3.2.1 and 4.1), the paper's central
    idea.

    Starting from a seed basic block, a greedy walk follows the most
    frequently executed path: into the callee when the block ends in a
    call, otherwise along the highest-probability outgoing arc.  The walk
    emits every first visit to a block whose execution weight passes
    ExecThresh; it abandons a direction when every continuation is visited,
    too cold, or reached through an arc below BranchThresh, then resumes
    from the best remaining side branch (the paper "starts again from the
    seed looking for the next acceptable basic block").  Each
    (seed, thresholds) pass yields one sequence; repeated passes with
    decreasing thresholds capture successively colder code, so sequences
    interleave caller and callee blocks across routine boundaries. *)

type t = {
  pass : Schedule.pass;
  blocks : Block.id array;  (** In placement order. *)
  bytes : int;
}

val build :
  graph:Graph.t -> profile:Profile.t -> seed_entry:(Service.t -> Block.id) ->
  schedule:Schedule.pass list -> ?follow_calls:bool -> unit -> t list
(** Run the whole schedule; a block appears in exactly one sequence (the
    first pass that reaches it).  Empty sequences are dropped.  With
    [~follow_calls:false] (ablation) the walk never descends into callees,
    so sequences stop at routine boundaries as in Chang-Hwu. *)

val covered : Graph.t -> t list -> bool array
(** Block id -> whether some sequence contains it. *)
