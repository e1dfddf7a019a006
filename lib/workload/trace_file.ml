(* Binary serialization of traces: capture once, replay against many
   layouts and cache geometries in later sessions (the paper's traces
   were likewise archived and re-simulated).

   Format: an 8-byte magic, a little-endian 64-bit event count, then one
   little-endian 32-bit word per event in the trace's packed encoding
   (3-bit tag + payload).  Packed events fit 32 bits comfortably: block
   ids are bounded by the kernel's block count (tens of thousands). *)

let magic = "ICTRACE1"

let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let n = Trace.length t in
      let b8 = Bytes.create 8 in
      Bytes.set_int64_le b8 0 (Int64.of_int n);
      output_bytes oc b8;
      let b4 = Bytes.create 4 in
      for i = 0 to n - 1 do
        let v = Trace.raw t i in
        if v < 0 || v > 0x7FFFFFFF then
          invalid_arg "Trace_file.save: event does not fit 32 bits";
        Bytes.set_int32_le b4 0 (Int32.of_int v);
        output_bytes oc b4
      done)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let malformed fmt =
        Printf.ksprintf (fun m -> invalid_arg ("Trace_file.load: " ^ m)) fmt
      in
      let header = String.length magic + 8 in
      let len = in_channel_length ic in
      if len < header then malformed "truncated header (%d bytes)" len;
      if really_input_string ic (String.length magic) <> magic then malformed "bad magic";
      let b8 = Bytes.create 8 in
      really_input ic b8 0 8;
      let n = Int64.to_int (Bytes.get_int64_le b8 0) in
      (* The file length fixes the event count, so a corrupt count never
         sizes the buffer and a truncated body never reaches EOF. *)
      let body = len - header in
      if n < 0 || body mod 4 <> 0 || n <> body / 4 then
        malformed "header claims %d events, body holds %d bytes" n body;
      let t = Trace.create ~capacity:(max 16 n) () in
      let b4 = Bytes.create 4 in
      for _ = 1 to n do
        really_input ic b4 0 4;
        Trace.append_raw t (Int32.to_int (Bytes.get_int32_le b4 0))
      done;
      t)
