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

(* Observability: each fork-join phase counts the domains it spawned and
   reports every worker's busy wall-clock through the metrics registry, so
   domain imbalance (one slot grinding while the rest idle at the join) is
   visible in the metrics snapshot without a profiler attached. *)
let fanouts = Metrics_registry.counter "parallel.fanouts"
let domains_used = Metrics_registry.counter "parallel.domains_used"

let busy_hist =
  Metrics_registry.histogram ~unit_:"seconds" "parallel.domain_busy_seconds"

let map_array ?jobs f arr =
  let n = Array.length arr in
  let j =
    min (match jobs with Some j -> clamp j | None -> default_jobs ()) n
  in
  if j <= 1 || n <= 1 then Array.mapi f arr
  else begin
    let results = Array.make n None in
    Metrics_registry.incr fanouts;
    Metrics_registry.incr ~by:j domains_used;
    (* Round-robin: domain [d] owns indices d, d+j, d+2j, ...; no slot is
       shared, so plain writes need no synchronization before the join. *)
    let worker d () =
      Trace_log.set_track (d + 1);
      let t0 = Trace_log.now () in
      let i = ref d in
      let first_error = ref None in
      while !i < n do
        (try results.(!i) <- Some (f !i arr.(!i))
         with e -> if !first_error = None then first_error := Some e);
        i := !i + j
      done;
      Metrics_registry.observe busy_hist (Trace_log.now () -. t0);
      !first_error
    in
    let domains = List.init j (fun d -> Domain.spawn (worker d)) in
    let errors = List.map Domain.join domains in
    List.iter (function Some e -> raise e | None -> ()) errors;
    Array.map Option.get results
  end
