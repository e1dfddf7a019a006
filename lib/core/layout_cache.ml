type stats = Memo.stats = { hits : int; misses : int }

(* Guards the loop memo below and the stage list; the stage tables are
   Memos with locks of their own. *)
let lock = Mutex.create ()
let enabled_flag = ref true

let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Loop detection                                                     *)
(* ------------------------------------------------------------------ *)

let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Physical-identity memo: the process only ever sees a handful of frozen
   graphs (the kernel plus a few application images), so a linear scan
   beats hashing structures that cannot be hashed physically.  Like
   {!Memo}, it is single-flight: the first caller claims a graph and runs
   [Loops.find]; racing callers wait for its list. *)
type loops_entry = Detecting | Found of Loops.t list * string

let loops_tbl : (Graph.t * loops_entry) list ref = ref []

(* Broadcast whenever a detection ends, found or failed. *)
let loops_found = Condition.create ()

let find_loops g = List.assq_opt g !loops_tbl

let set_loops g entry =
  loops_tbl := List.filter (fun (g', _) -> g' != g) !loops_tbl;
  Option.iter (fun e -> loops_tbl := (g, e) :: !loops_tbl) entry;
  Condition.broadcast loops_found

let loops g =
  (* Caller holds [lock]; [None] means this caller claimed [g]. *)
  let rec claim () =
    match find_loops g with
    | Some (Found (l, _)) -> Some l
    | Some Detecting ->
        Condition.wait loops_found lock;
        claim ()
    | None ->
        loops_tbl := (g, Detecting) :: !loops_tbl;
        None
  in
  match Mutex.protect lock claim with
  | Some l -> l
  | None -> (
      match Loops.find g with
      | l ->
          let d = md5 l in
          Mutex.protect lock (fun () -> set_loops g (Some (Found (l, d))));
          l
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.protect lock (fun () -> set_loops g None);
          Printexc.raise_with_backtrace e bt)

let loops_digest g l =
  match Mutex.protect lock (fun () -> find_loops g) with
  | Some (Found (l', d)) when l' == l -> d
  | Some _ | None -> md5 l

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
  if !enabled_flag then
    Memo.find_or_build s.memo key (fun () -> Trace_log.stage s.name build)
  else build ()

let all_stages () = Mutex.protect lock (fun () -> List.rev !stages)

let stage_stats () =
  List.map (fun (Stage (short, s)) -> (short, Memo.stats s.memo)) (all_stages ())

let clear () =
  List.iter (fun (Stage (_, s)) -> Memo.clear s.memo) (all_stages ());
  Mutex.protect lock (fun () -> loops_tbl := [])
