type t = { mutable data : int array; mutable len : int; mutable execs : int }

type event =
  | Exec of { image : int; block : Block.id }
  | Invocation_start of Service.t
  | Invocation_end

(* Low 3 bits: image index 0..5 for executions; 6 = invocation end,
   7 = invocation start (block field holds the service class). *)
let tag_end = 6
let tag_start = 7

let encode = function
  | Exec { image; block } -> (block lsl 3) lor image
  | Invocation_start c -> (Service.index c lsl 3) lor tag_start
  | Invocation_end -> tag_end

let decode v =
  let tag = v land 7 in
  let payload = v lsr 3 in
  if tag = tag_start then Invocation_start (Service.of_index payload)
  else if tag = tag_end then Invocation_end
  else Exec { image = tag; block = payload }

let create ?(capacity = 4096) () =
  { data = Array.make (max 16 capacity) 0; len = 0; execs = 0 }

(* Both append paths funnel through here: grow-by-doubling, store the
   packed event, and keep the exec-event count current. *)
let push t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  if v land 7 < tag_end then t.execs <- t.execs + 1

let append t ev = push t (encode ev)

let append_exec t ~image ~block = push t ((block lsl 3) lor image)

let length t = t.len

let exec_count t = t.execs

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: out of bounds";
  decode t.data.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f (decode t.data.(i))
  done

let iter_exec t f =
  let data = t.data in
  for i = 0 to t.len - 1 do
    let v = Array.unsafe_get data i in
    let tag = v land 7 in
    if tag < 6 then f ~image:tag ~block:(v lsr 3)
  done

type cursor = { trace : t; mutable pos : int }

let cursor trace = { trace; pos = 0 }

let read_exec c dst n =
  let data = c.trace.data and len = c.trace.len in
  let n = min n (Array.length dst) in
  let k = ref 0 and pos = ref c.pos in
  while !k < n && !pos < len do
    let v = Array.unsafe_get data !pos in
    if v land 7 < tag_end then begin
      Array.unsafe_set dst !k v;
      incr k
    end;
    incr pos
  done;
  c.pos <- !pos;
  !k

let raw t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.raw: out of bounds";
  t.data.(i)

let append_raw t v =
  ignore (decode v);
  push t v
