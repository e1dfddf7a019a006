type event = {
  seq : int;
  name : string;
  begin_ : bool;
  ts : float;
  track : int;
  args : (string * Json.t) list;
}

(* Grow-on-demand event buffer owned by exactly one domain.  The owning
   domain appends without synchronization; merging only happens while the
   owner records nothing (an idle pool worker, a joined domain, or the
   owner itself), so plain mutation is safe.  Buffers of dead domains stay
   registered: their events are part of the run's history. *)
type buffer = { mutable items : event array; mutable len : int }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled_flag = Atomic.make false
let seq_counter = Atomic.make 0
let epoch = now ()

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let dummy_event = { seq = 0; name = ""; begin_ = true; ts = 0.0; track = 0; args = [] }

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { items = Array.make 256 dummy_event; len = 0 } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let track_key = Domain.DLS.new_key (fun () -> 0)

let set_track t = Domain.DLS.set track_key t

let set_enabled b = Atomic.set enabled_flag b

(* [t] is the clock reading the event stands for.  Returns the event's
   slot in this domain's buffer. *)
let record t ~begin_ ~name ~args =
  let b = Domain.DLS.get buffer_key in
  if b.len = Array.length b.items then begin
    let bigger = Array.make (2 * b.len) dummy_event in
    Array.blit b.items 0 bigger 0 b.len;
    b.items <- bigger
  end;
  b.items.(b.len) <-
    {
      seq = Atomic.fetch_and_add seq_counter 1;
      name;
      begin_;
      ts = (t -. epoch) *. 1e6;
      track = Domain.DLS.get track_key;
      args;
    };
  b.len <- b.len + 1;
  (b, b.len - 1)

(* Per-stage (calls, seconds), with names in reverse order of first completion. *)
let totals_lock = Mutex.create ()
let totals : (string, int * float) Hashtbl.t = Hashtbl.create 16
let total_order : string list ref = ref []

let add_total name dt =
  Mutex.protect totals_lock (fun () ->
      match Hashtbl.find_opt totals name with
      | Some (n, s) -> Hashtbl.replace totals name (n + 1, s +. dt)
      | None ->
          Hashtbl.add totals name (1, dt);
          total_order := name :: !total_order)

(* The one timer: both the events and the total read [t0] and [t1].  The
   begin event stays in this domain's buffer at the same index while [f]
   runs, so [after]'s arguments can join it there once [f] returns. *)
let span ~total ?(args = []) ?after name f =
  let traced = Atomic.get enabled_flag in
  if not (traced || total) then f ()
  else begin
    let t0 = now () in
    let opened = if traced then Some (record t0 ~begin_:true ~name ~args) else None in
    let r =
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          if traced then ignore (record t1 ~begin_:false ~name ~args:[]);
          if total then add_total name (t1 -. t0))
    in
    (match (opened, after) with
    | Some (b, at), Some more ->
        let e = b.items.(at) in
        b.items.(at) <- { e with args = e.args @ more () }
    | _ -> ());
    r
  end

let stage ?args name f = span ~total:true ?args name f

let with_span ?args ?after name f = span ~total:false ?args ?after name f

let stage_totals () =
  Mutex.protect totals_lock (fun () ->
      List.rev_map
        (fun name ->
          let n, s = Hashtbl.find totals name in
          (name, n, s))
        !total_order)

let buffers () = Mutex.protect registry_lock (fun () -> !registry)

let events () =
  let all =
    List.concat_map (fun b -> List.init b.len (fun i -> b.items.(i))) (buffers ())
  in
  List.sort (fun a b -> compare a.seq b.seq) all

let span_count () =
  List.fold_left
    (fun n b ->
      let ends = ref n in
      for i = 0 to b.len - 1 do
        if not b.items.(i).begin_ then incr ends
      done;
      !ends)
    0 (buffers ())

let to_chrome ?(extra = []) () =
  let event_json e =
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("ph", Json.String (if e.begin_ then "B" else "E"));
         ("ts", Json.Float e.ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int e.track);
       ]
      @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])
  in
  Json.Obj
    ([
       ("traceEvents", Json.List (List.map event_json (events ())));
       ("displayTimeUnit", Json.String "ms");
     ]
    @ extra)

let of_chrome doc =
  let event i e =
    let what = Printf.sprintf "event %d" i in
    let name = Json.field Json.to_str what "name" e in
    let begin_ =
      match Json.field Json.to_str what "ph" e with
      | "B" -> true
      | "E" -> false
      | ph -> Json.fail "event %d (%s): unsupported phase %S" i name ph
    in
    let args = Option.value ~default:[] (Option.bind (Json.member "args" e) Json.to_obj) in
    let ts = Json.field Json.to_float what "ts" e in
    { seq = i; name; begin_; ts; track = Json.field Json.to_int what "tid" e; args }
  in
  Json.decode (fun () -> List.mapi event (Json.field Json.to_list "trace" "traceEvents" doc))

(* Events of one track are in program order: seq order refines per-domain
   order, and successive domains sharing a track never overlap in time. *)
let fold_spans f init events =
  let stacks : (int, event list) Hashtbl.t = Hashtbl.create 8 in
  let stack track = Option.value ~default:[] (Hashtbl.find_opt stacks track) in
  Json.decode (fun () ->
      let acc =
        List.fold_left
          (fun acc e ->
            match (e.begin_, stack e.track) with
            | true, open_ ->
                Hashtbl.replace stacks e.track (e :: open_);
                acc
            | false, b :: rest when b.name = e.name ->
                Hashtbl.replace stacks e.track rest;
                f acc b (e.ts -. b.ts)
            | false, b :: _ ->
                Json.fail "track %d: end of %S does not match innermost open span %S" e.track
                  e.name b.name
            | false, [] -> Json.fail "track %d: end of %S with no open span" e.track e.name)
          init events
      in
      Hashtbl.iter
        (fun track open_ ->
          match open_ with
          | [] -> ()
          | b :: _ ->
              Json.fail "track %d: %d unclosed span(s), innermost %S" track (List.length open_)
                b.name)
        stacks;
      acc)

let reset () =
  Mutex.protect registry_lock (fun () -> List.iter (fun b -> b.len <- 0) !registry);
  Mutex.protect totals_lock (fun () ->
      Hashtbl.reset totals;
      total_order := [])
