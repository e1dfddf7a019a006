(* Per line: '\000' = never evicted, '\001' = last evictor was the OS,
   '\002' = last evictor was the application.  Indexed by line number and
   grown by doubling: line numbers are bounded by the layout extent over
   the line size, so this stays a few tens of KB while replacing two
   hashtable probes on every miss. *)
type t = { mutable by_line : Bytes.t }

let create () = { by_line = Bytes.make 4096 '\000' }

let record t ~line ~os =
  let n = Bytes.length t.by_line in
  if line >= n then begin
    let rec grow n = if line < n then n else grow (2 * n) in
    let b = Bytes.make (grow (2 * n)) '\000' in
    Bytes.blit t.by_line 0 b 0 n;
    t.by_line <- b
  end;
  Bytes.unsafe_set t.by_line line (if os then '\001' else '\002')

let classify t (c : Counters.t) ~os line =
  let tag =
    if line < Bytes.length t.by_line then Bytes.unsafe_get t.by_line line else '\000'
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

let reset t = Bytes.fill t.by_line 0 (Bytes.length t.by_line) '\000'
