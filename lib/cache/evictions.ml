(* Per line: '\000' = never evicted, '\001' = last evictor was the OS,
   '\002' = last evictor was the application.  Lines are grouped into
   pages of 4096, each allocated on the first eviction inside it: a
   layout's code is a few dense regions spread over tens of MB of address
   space (applications sit at high bases), so a flat line-indexed map
   would be megabytes of zeros per cache, allocated afresh for every
   cache of every replay pass.  [none] stands for a page not yet
   allocated. *)
type t = { mutable pages : Bytes.t array }

let page_bits = 12
let page_mask = (1 lsl page_bits) - 1
let none = Bytes.empty

let create () = { pages = [||] }

let[@inline never] page_for t p =
  if p >= Array.length t.pages then begin
    let pages = Array.make (max (p + 1) (2 * Array.length t.pages)) none in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  if t.pages.(p) == none then t.pages.(p) <- Bytes.make (1 lsl page_bits) '\000';
  t.pages.(p)

let record t ~line ~os =
  let p = line lsr page_bits in
  let page =
    if p < Array.length t.pages && Array.unsafe_get t.pages p != none then
      Array.unsafe_get t.pages p
    else page_for t p
  in
  Bytes.unsafe_set page (line land page_mask) (if os then '\001' else '\002')

let classify t (c : Counters.t) ~os line =
  let p = line lsr page_bits in
  let tag =
    if p < Array.length t.pages && Array.unsafe_get t.pages p != none then
      Bytes.unsafe_get (Array.unsafe_get t.pages p) (line land page_mask)
    else '\000'
  in
  match tag with
  | '\000' ->
      if os then c.os_cold <- c.os_cold + 1 else c.app_cold <- c.app_cold + 1;
      0
  | '\001' ->
      if os then begin
        c.os_self <- c.os_self + 1;
        1
      end
      else begin
        c.app_cross <- c.app_cross + 1;
        2
      end
  | _ ->
      if os then begin
        c.os_cross <- c.os_cross + 1;
        2
      end
      else begin
        c.app_self <- c.app_self + 1;
        1
      end
