(** Function inlining, the alternative the paper considers and rejects
    (Section 4.1, citing Chen et al.): inserting the whole callee between
    the caller's blocks instead of interleaving a few of its blocks.
    "Function inlining, however, expands the active code size and may
    increase the chance of conflicts."

    [transform] rewrites the kernel model: every frequently executed call
    site whose callee is a small leaf routine receives a private clone of
    the callee's body; the call disappears and the clone's exit blocks
    resume at the site's original successors.  The original routine
    remains for the sites that were not inlined.  Routine ids are
    preserved; block and arc ids are not. *)

type stats = {
  sites : int;  (** Call sites inlined. *)
  callees : int;  (** Distinct routines that got inlined somewhere. *)
  added_bytes : int;  (** Static code growth. *)
}

val transform : model:Model.t -> profile:Profile.t -> Model.t * stats
(** A site qualifies when its call block executes at least 0.05 times
    per OS invocation and its callee is at most 256 bytes.  The returned
    model walks identically to the original except that inlined callees
    occupy per-site addresses. *)
