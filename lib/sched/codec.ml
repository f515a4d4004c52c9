(* Text codec for instances, and the rsp/1 line grammar it shares with
   the serve and cluster wires.  Keeping the grammar here (under sched,
   not serve) lets traces be saved, loaded and replayed without linking
   the network layer. *)

let version = "rsp/1"

module Line = struct
  let max_line = 65536

  let rec add_digits b v =
    if v >= 10 then add_digits b (v / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))

  (* a negative value still renders, and a parser that wants a
     non-negative field then rejects it *)
  let add_int b v =
    if v >= 0 then add_digits b v else Buffer.add_string b (string_of_int v)

  let add_field b v =
    Buffer.add_char b ' ';
    add_int b v

  let add_list b sep add xs =
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char b sep;
         add b x)
      xs

  let add_alts b alts = add_list b ',' add_int alts

  exception Malformed of string

  let fail msg = raise (Malformed msg)

  type cursor = { line : string; mutable pos : int; mutable lim : int }

  let cursor line = { line; pos = 0; lim = String.length line }

  let rec scan s ch i lim =
    if i < lim && s.[i] <> ch then scan s ch (i + 1) lim else i

  let next c =
    if c.pos > c.lim then fail "truncated line";
    let i = c.pos in
    c.pos <- scan c.line ' ' i c.lim + 1;
    i

  (* [s.[i..j)] as int_of_string reads it; up to eighteen plain digits
     cannot overflow and are decoded here *)
  let int_at ~what s i j =
    let rec digits k acc =
      if k = j then acc
      else
        match s.[k] with
        | '0' .. '9' as ch -> digits (k + 1) ((acc * 10) + Char.code ch - 48)
        | _ -> -1
    in
    match if j - i < 1 || j - i > 18 then -1 else digits i 0 with
    | -1 ->
      let f = String.sub s i (j - i) in
      (match int_of_string_opt f with
       | Some v -> v
       | None -> fail (Printf.sprintf "malformed %s %S" what f))
    | v -> v

  let nat_at ~what s i j =
    let v = int_at ~what s i j in
    if v < 0 then fail (Printf.sprintf "negative %s %d" what v);
    v

  let int c ~what =
    let i = next c in
    int_at ~what c.line i (c.pos - 1)

  let nat c ~what =
    let i = next c in
    nat_at ~what c.line i (c.pos - 1)

  let word c =
    let i = next c in
    String.sub c.line i (c.pos - 1 - i)

  let versioned c =
    let v = word c in
    if v <> version then
      fail
        (Printf.sprintf "unsupported protocol version %S (want %s)" v version)

  let rest c =
    let i = c.pos in
    c.pos <- c.lim + 1;
    if i > c.lim then "" else String.sub c.line i (c.lim - i)

  let fields c =
    let rec count i n =
      if i = c.lim then n
      else count (i + 1) (if c.line.[i] = ' ' then n + 1 else n)
    in
    if c.pos > c.lim then 0 else count c.pos 1

  let alts c =
    let s = c.line and i = next c in
    let j = c.pos - 1 in
    if i = j then fail "empty alternative list";
    let rec go i acc =
      let k = scan s ',' i j in
      let v = nat_at ~what:"resource" s i k in
      if List.mem v acc then fail (Printf.sprintf "duplicate resource %d" v);
      if k = j then List.rev (v :: acc) else go (k + 1) (v :: acc)
    in
    go i []

  let finish c =
    if c.pos <= c.lim then fail "trailing data after the last field"

  let entries c sep read =
    let stop = c.lim in
    let rec go i acc =
      c.lim <- scan c.line sep c.pos stop;
      let x = read i c in
      finish c;
      let acc = x :: acc in
      if c.lim = stop then List.rev acc else go (i + 1) acc
    in
    if c.pos < stop then go 0 []
    else begin
      c.pos <- stop + 1;
      []
    end
end

let add_req_fields b ~first ~alternatives ~deadline =
  Line.add_int b first;
  Buffer.add_char b ' ';
  Line.add_alts b alternatives;
  Line.add_field b deadline

let req_fields c ~what =
  if Line.fields c <> 3 then
    Line.fail
      (Printf.sprintf "expected '<%s> <alts> <deadline>': %S" what
         (Line.rest c));
  let first = Line.int c ~what in
  let alternatives = Line.alts c in
  let deadline = Line.int c ~what:"deadline" in
  if deadline < 1 then
    Line.fail (Printf.sprintf "deadline %d must be >= 1" deadline);
  (first, alternatives, deadline)

let to_string (inst : Instance.t) =
  let b = Buffer.create (64 + (32 * Instance.n_requests inst)) in
  Buffer.add_string b ("instance " ^ version ^ " n=");
  Line.add_int b inst.Instance.n_resources;
  Buffer.add_string b " d=";
  Line.add_int b inst.Instance.d;
  Buffer.add_string b " requests=";
  Line.add_int b (Instance.n_requests inst);
  Array.iter
    (fun (r : Request.t) ->
       Buffer.add_string b "\nreq ";
       add_req_fields b ~first:r.Request.arrival
         ~alternatives:(Array.to_list r.Request.alternatives)
         ~deadline:r.Request.deadline)
    inst.Instance.requests;
  Buffer.add_string b "\nend\n";
  Buffer.contents b

(* "instance <version> n=<n> d=<d> requests=<count>" *)
let parse_header line =
  let c = Line.cursor line in
  let keyed key =
    let f = Line.word c and k = String.length key + 1 in
    if String.length f > k && String.sub f 0 k = key ^ "=" then
      Line.int_at ~what:key f k (String.length f)
    else Line.fail key
  in
  match
    if Line.word c <> "instance" || c.pos > c.lim then Line.fail "keyword";
    let v = Line.word c in
    if v <> version then
      Error (Printf.sprintf "unsupported trace version %S (want %s)" v version)
    else begin
      if Line.fields c <> 3 then Line.fail "field count";
      let n = keyed "n" in
      let d = keyed "d" in
      Ok (n, d, keyed "requests")
    end
  with
  | header -> header
  | exception Line.Malformed _ ->
    Error (Printf.sprintf "malformed instance header %S" line)

let of_string s =
  let rec requests acc = function
    | [ "end" ] -> List.rev acc
    | [] -> Line.fail "truncated trace (missing 'end')"
    | line :: rest when String.starts_with ~prefix:"req " line ->
      let c = Line.cursor line in
      c.pos <- 4;
      let arrival, alternatives, deadline = req_fields c ~what:"arrival" in
      requests (Request.make ~arrival ~alternatives ~deadline :: acc) rest
    | line :: _ -> Line.fail (Printf.sprintf "malformed trace line %S" line)
  in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' s) with
  | [] -> Error "empty trace"
  | header :: rest ->
    (match parse_header header with
     | Error _ as e -> e
     | Ok (n, d, count) ->
       (match
          let protos = requests [] rest in
          if List.length protos <> count then
            Line.fail
              (Printf.sprintf "header claims %d requests, trace has %d"
                 count (List.length protos));
          Instance.build ~n_resources:n ~d protos
        with
        | inst -> Ok inst
        | exception (Line.Malformed m | Invalid_argument m) -> Error m))

let save ~path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let load ~path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let len = in_channel_length ic in
         of_string (really_input_string ic len))
