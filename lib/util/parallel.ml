let clamp n = if n < 1 then 1 else n

let override = ref None

let env_jobs () =
  match Sys.getenv_opt "ICACHE_JOBS" with
  | Some s -> Option.map clamp (int_of_string_opt (String.trim s))
  | None -> None

let default_jobs () =
  match !override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> clamp (Domain.recommended_domain_count ()))

let set_jobs n = override := Some (clamp n)

(* Observability: each fan-out counts the runners that took part and
   reports every runner's busy wall-clock through the metrics registry,
   so imbalance (one runner grinding while the rest idle at the join) is
   visible in the metrics snapshot without a profiler attached. *)
let fanouts = Metrics_registry.counter "parallel.fanouts"
let domains_used = Metrics_registry.counter "parallel.domains_used"

let busy_hist =
  Metrics_registry.histogram ~unit_:"seconds" "parallel.domain_busy_seconds"

(* ------------------------------------------------------------------ *)
(* The pool                                                           *)
(* ------------------------------------------------------------------ *)

(* One fan-out.  Every mutable field is guarded by [lock]. *)
type job = {
  run : int -> unit;  (* runs one index and stores its outcome; never raises *)
  size : int;
  mutable next : int;  (* first unclaimed index *)
  mutable unfinished : int;  (* indices claimed or not, still running or queued *)
  mutable helpers : int;  (* workers inside one of this job's tasks right now *)
  max_helpers : int;
  mutable busy : (int * float) list;  (* seconds per runner slot *)
}

let lock = Mutex.create ()

(* Signalled when a job is published; idle workers wait on it. *)
let work = Condition.create ()

(* Broadcast when a job's last task finishes; joining callers wait on it. *)
let finished = Condition.create ()

(* Jobs with unclaimed indices, newest first, so an idle worker helps the
   innermost fan-out, whose caller is the one blocked soonest. *)
let open_jobs : job list ref = ref []

let workers = ref 0

(* 0 on every domain the pool did not start; worker k is slot k. *)
let slot_key = Domain.DLS.new_key (fun () -> 0)

(* Caller holds [lock] and [j.next < j.size]. *)
let claim j =
  let i = j.next in
  j.next <- i + 1;
  if j.next = j.size then open_jobs := List.filter (fun o -> o != j) !open_jobs;
  i

(* Run one claimed index outside the lock, then account for it. *)
let execute j i =
  Mutex.unlock lock;
  let t0 = Trace_log.now () in
  j.run i;
  let dt = Trace_log.now () -. t0 in
  Mutex.lock lock;
  let slot = Domain.DLS.get slot_key in
  j.busy <-
    (match List.assoc_opt slot j.busy with
    | Some s -> (slot, s +. dt) :: List.remove_assoc slot j.busy
    | None -> (slot, dt) :: j.busy);
  j.unfinished <- j.unfinished - 1;
  if j.unfinished = 0 then Condition.broadcast finished

let rec worker_loop () =
  match List.find_opt (fun j -> j.helpers < j.max_helpers) !open_jobs with
  | None ->
      Condition.wait work lock;
      worker_loop ()
  | Some j ->
      let i = claim j in
      j.helpers <- j.helpers + 1;
      execute j i;
      j.helpers <- j.helpers - 1;
      worker_loop ()

(* Caller holds [lock].  If the runtime refuses another domain the pool
   stays smaller: every caller runs its own tasks, so fewer workers only
   cost speed. *)
let ensure_workers n =
  try
    while !workers < n do
      let slot = !workers + 1 in
      ignore
        (Domain.spawn (fun () ->
             Domain.DLS.set slot_key slot;
             Trace_log.set_track slot;
             Mutex.lock lock;
             worker_loop ()));
      workers := slot
    done
  with Failure _ -> ()

let map_array ?jobs f arr =
  let n = Array.length arr in
  let j =
    min (match jobs with Some j -> clamp j | None -> default_jobs ()) n
  in
  if j <= 1 || n <= 1 then Array.mapi f arr
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let run i =
      match f i arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let job =
      { run; size = n; next = 0; unfinished = n; helpers = 0; max_helpers = j - 1; busy = [] }
    in
    Mutex.lock lock;
    ensure_workers (j - 1);
    open_jobs := job :: !open_jobs;
    Condition.broadcast work;
    (* The caller runs only its own job's tasks: a task of another job
       might wait on a memo key this caller is building. *)
    while job.next < job.size do
      execute job (claim job)
    done;
    while job.unfinished > 0 do
      Condition.wait finished lock
    done;
    let busy = job.busy in
    Mutex.unlock lock;
    Metrics_registry.incr fanouts;
    Metrics_registry.incr ~by:(List.length busy) domains_used;
    List.iter (fun (_, s) -> Metrics_registry.observe busy_hist s) busy;
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.map Option.get results
  end
