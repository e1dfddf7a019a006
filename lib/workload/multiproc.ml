(* Multiprocessor tracing: the paper's testbed is a 4-CPU Alliant FX/8
   with one instruction cache per processor; every reported number is the
   average of the four processors.

   Each CPU is one Engine.core (its own walkers and PRNG streams over the
   shared kernel image) recording into its own trace.  Cross-processor
   interrupts couple the streams: with probability [xcall_prob], an
   invocation on one CPU forces an interrupt-class invocation (the
   cross-processor interrupt handler, index 1 when present) on every
   other CPU before that CPU continues - the mechanism behind TRFD_4's
   interrupt-dominated profile. *)

type cpu = {
  trace : Trace.t;
  mutable os_words : int;
  mutable app_words : int;
  invocations : int array;
  mutable forced : int;  (** Cross-processor interrupts served. *)
  mutable pending_xcalls : int;
}

type result = {
  cpus : cpu array;
  xcalls_sent : int;
}

let words cpu = cpu.os_words + cpu.app_words

let run ~program ~workload ~cpus:n_cpus ~words_per_cpu ~seed ?(xcall_prob = 0.0) () =
  if n_cpus < 1 then invalid_arg "Multiproc.run: need at least one CPU";
  let master = Prng.of_int seed in
  let xcalls_sent = ref 0 in
  let interrupt = Service.index Service.Interrupt in
  let xcall_handler =
    min 1 (Array.length program.Program.os.Model.handlers.(interrupt) - 1)
  in

  (* Every CPU adds to one set of counts; this model reads only traces. *)
  let counts = Engine.counts program in
  let make_cpu cpu_index =
    let g_class = Prng.split master in
    let g_os = Prng.split master in
    let g_app = Prng.split master in
    let trace = Trace.create ~capacity:(words_per_cpu / 4) () in
    (* This CPU owns the app instances congruent to its index. *)
    let instances =
      Array.of_list
        (List.filteri
           (fun k _ -> k mod n_cpus = cpu_index)
           (Array.to_list workload.Workload.app_instances))
    in
    let core =
      Engine.core ~program ~workload ~instances ~g_class ~g_os ~g_app ~trace ~counts
    in
    let cpu =
      {
        trace;
        os_words = 0;
        app_words = 0;
        invocations = Engine.invocations core;
        forced = 0;
        pending_xcalls = 0;
      }
    in
    (* Each burst runs the next of this CPU's instances in turn. *)
    let slot = ref 0 in
    let step () =
      let broadcast =
        (* Serve forced cross-processor interrupts first. *)
        if cpu.pending_xcalls > 0 then begin
          cpu.pending_xcalls <- cpu.pending_xcalls - 1;
          cpu.forced <- cpu.forced + 1;
          Engine.invoke core interrupt ~handler:xcall_handler;
          false
        end
        else begin
          let ci, handler = Engine.draw_invocation core in
          Engine.invoke core ci ~handler;
          if Engine.app_burst core ~slot:!slot then incr slot;
          Prng.bernoulli g_class xcall_prob
        end
      in
      cpu.os_words <- Engine.os_words core;
      cpu.app_words <- Engine.app_words core;
      broadcast
    in
    (cpu, step)
  in

  let machines = Array.init n_cpus make_cpu in
  let cpus = Array.map fst machines in
  let unfinished () = Array.exists (fun c -> words c < words_per_cpu) cpus in
  while unfinished () do
    (* Advance the CPU that is furthest behind (time-interleaving). *)
    let next = ref 0 in
    Array.iteri (fun i c -> if words c < words cpus.(!next) then next := i) cpus;
    let _, step = machines.(!next) in
    if step () then begin
      (* Broadcast a cross-processor interrupt. *)
      Array.iteri
        (fun i c -> if i <> !next then c.pending_xcalls <- c.pending_xcalls + 1)
        cpus;
      incr xcalls_sent
    end
  done;
  { cpus; xcalls_sent = !xcalls_sent }
