type stats = Memo.stats = { hits : int; misses : int }

(* Guards the stage list; the stage tables are Memos with locks of their
   own. *)
let lock = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Loop detection                                                     *)
(* ------------------------------------------------------------------ *)

(* Not a stage: {!stage_stats} lists the layout stages only.  Its builds
   are timed as a stage of the memo's name all the same. *)
let loops_memo : (Loops.t list * string) Memo.t = Memo.create "layout_cache.loops"

let loops_entry g =
  Memo.find_or_build loops_memo (Graph.digest g) (fun () ->
      Trace_log.stage "layout_cache.loops" (fun () ->
          let l = Loops.find g in
          (l, Memo.digest l)))

let loops g = fst (loops_entry g)

let loops_digest g l =
  let l', d = loops_entry g in
  if l' == l then d else Memo.digest l

(* ------------------------------------------------------------------ *)
(* Stages                                                             *)
(* ------------------------------------------------------------------ *)

(* A stage's memo and its builds' timing stage share one name,
   layout_cache.<stage>. *)
type 'a stage = { name : string; memo : 'a Memo.t }

type any_stage = Stage : string * 'a stage -> any_stage

let stages : any_stage list ref = ref [] (* reverse creation order *)

let stage short =
  let name = "layout_cache." ^ short in
  let s = { name; memo = Memo.create name } in
  Mutex.protect lock (fun () -> stages := Stage (short, s) :: !stages);
  s

let find_or_build s ~key build =
  Memo.find_or_build s.memo key (fun () -> Trace_log.stage s.name build)

let all_stages () = Mutex.protect lock (fun () -> List.rev !stages)

let stage_stats () =
  List.map (fun (Stage (short, s)) -> (short, Memo.stats s.memo)) (all_stages ())

let clear () =
  List.iter (fun (Stage (_, s)) -> Memo.clear s.memo) (all_stages ());
  Memo.clear loops_memo
