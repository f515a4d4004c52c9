(* Line framing over byte streams, shared by the server's nonblocking
   connection handling and the client's blocking reader. *)

type t = Buffer.t (* the partial line after the last newline *)

let create () = Buffer.create 256

let buffered = Buffer.length

(* Scan only the new bytes: a complete line is cut straight out of [b]
   when nothing is buffered, and otherwise assembled once from the
   buffered head and its tail in [b]. *)
let feed t b off len emit =
  let start = ref off in
  for i = off to off + len - 1 do
    if Bytes.get b i = '\n' then begin
      if Buffer.length t = 0 then begin
        if i > !start then emit (Bytes.sub_string b !start (i - !start))
      end
      else begin
        Buffer.add_subbytes t b !start (i - !start);
        emit (Buffer.contents t);
        Buffer.clear t
      end;
      start := i + 1
    end
  done;
  Buffer.add_subbytes t b !start (off + len - !start)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done
