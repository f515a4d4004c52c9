(* Inter-node wire grammar.  Everything is a single space-separated
   line behind a leading keyword; integer fields are non-negative
   (Serve.Protocol.int_field), alternative lists use Sched.Codec's
   comma grammar, and the LDF key renders max_int as "inf" (cancel
   messages outrank everything, and 4611686018427387903 on the wire
   would be noise, not meaning).

   The transport renders and parses back every message it carries, so
   both directions are on the cluster's per-message path and neither
   goes through Printf: the renderer writes digits into a per-call
   Buffer, and the parser dispatches on the keyword and reads the
   fields with one cursor. *)

module Protocol = Serve.Protocol
module Request = Sched.Request

let version = Sched.Codec.version
let max_line = 65536

type reqinfo = {
  rid : int;
  alternatives : int list;
  arrival : int;
  deadline : int;
}

let last_round ri = ri.arrival + ri.deadline - 1

type data =
  | Offer of reqinfo
  | Probe of reqinfo
  | Cancel of { q : int; old_res : int; old_t : int }
  | Rival of reqinfo
  | Swap of { r : int; q : reqinfo }
  | Rehome of { r : reqinfo; res : int }
  | Loadq
  | Assign of reqinfo

type 'a message = 'a Distnet.Net.message = {
  sender : int;
  dst : int;
  deadline_key : int;
  tagged : bool;
  payload : 'a;
}

type env = data message

type reply =
  | Accept of { q : int; res : int; slot : int }
  | Full of { q : int; res : int }
  | Ack of { q : int; res : int }
  | Freeat of { q : int; res : int; slot : int }
  | Served of { res : int; round : int; q : int }
  | Pong of { node : int; round : int }

type control =
  | Hello of { node : int }
  | Ping of { round : int }
  | Join of { node : int; round : int }
  | Handoff of { res : int; slots : (int * reqinfo) list }

type t = Data of env | Reply of reply | Control of control

let reqinfo_of_request (r : Request.t) =
  {
    rid = r.Request.id;
    alternatives = Array.to_list r.Request.alternatives;
    arrival = r.Request.arrival;
    deadline = r.Request.deadline;
  }

let request_of_reqinfo ri =
  Request.with_id
    (Request.make ~arrival:ri.arrival ~alternatives:ri.alternatives
       ~deadline:ri.deadline)
    ri.rid

(* ------------------------------------------------------------------ *)
(* rendering *)

let rec add_digits b v =
  if v >= 10 then add_digits b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))

(* a negative value still renders, and the parser then rejects it *)
let add_int b v =
  if v >= 0 then add_digits b v else Buffer.add_string b (string_of_int v)

let field b v =
  Buffer.add_char b ' ';
  add_int b v

let add_reqinfo b ri =
  field b ri.rid;
  Buffer.add_char b ' ';
  List.iteri
    (fun i a ->
       if i > 0 then Buffer.add_char b ',';
       add_int b a)
    ri.alternatives;
  field b ri.arrival;
  field b ri.deadline

let add_env b keyword e =
  Buffer.add_string b keyword;
  field b e.sender;
  field b e.dst;
  if e.deadline_key = max_int then Buffer.add_string b " inf"
  else field b e.deadline_key;
  Buffer.add_string b (if e.tagged then " t" else " u")

let add_data b e =
  match e.payload with
  | Offer ri -> add_env b "offer" e; add_reqinfo b ri
  | Probe ri -> add_env b "probe" e; add_reqinfo b ri
  | Cancel { q; old_res; old_t } ->
    add_env b "cancel" e; field b q; field b old_res; field b old_t
  | Rival ri -> add_env b "rival" e; add_reqinfo b ri
  | Swap { r; q } -> add_env b "swap" e; field b r; add_reqinfo b q
  | Rehome { r; res } -> add_env b "rehome" e; field b res; add_reqinfo b r
  | Loadq -> add_env b "loadq" e
  | Assign ri -> add_env b "assign" e; add_reqinfo b ri

let add_reply b = function
  | Accept { q; res; slot } ->
    Buffer.add_string b "accept"; field b q; field b res; field b slot
  | Full { q; res } -> Buffer.add_string b "full"; field b q; field b res
  | Ack { q; res } -> Buffer.add_string b "ack"; field b q; field b res
  | Freeat { q; res; slot } ->
    Buffer.add_string b "freeat"; field b q; field b res; field b slot
  | Served { res; round; q } ->
    Buffer.add_string b "served"; field b res; field b round; field b q
  | Pong { node; round } ->
    Buffer.add_string b "pong"; field b node; field b round

let add_control b = function
  | Hello { node } ->
    Buffer.add_string b "hello "; Buffer.add_string b version; field b node
  | Ping { round } -> Buffer.add_string b "ping"; field b round
  | Join { node; round } ->
    Buffer.add_string b "join "; Buffer.add_string b version;
    field b node; field b round
  | Handoff { res; slots } ->
    Buffer.add_string b "handoff";
    field b res;
    List.iteri
      (fun i (t, ri) ->
         Buffer.add_char b (if i = 0 then ' ' else ';');
         add_int b t;
         add_reqinfo b ri)
      slots

let render m =
  let b = Buffer.create 64 in
  (match m with
   | Data e -> add_data b e
   | Reply r -> add_reply b r
   | Control c -> add_control b c);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing *)

exception Malformed of string

let fail msg = raise (Malformed msg)

(* A cursor over one line.  Fields are separated by single spaces and
   the current one ends at the next space or at [lim]; [pos] is where
   the next field starts, [lim + 1] once the last one is read.  [lim]
   is the line's end except inside a handoff entry. *)
type cursor = { line : string; mutable pos : int; mutable lim : int }

let rec scan s ch i lim =
  if i < lim && s.[i] <> ch then scan s ch (i + 1) lim else i

(* end of the field at the cursor, which must exist *)
let field_end c =
  if c.pos > c.lim then fail "truncated line";
  scan c.line ' ' c.pos c.lim

(* [s.[i..j)] as a non-negative int.  Up to eighteen plain digits are
   decoded here (they cannot overflow); every other field, including
   int_of_string's other forms ("0x10", "+1", "1_0") and longer ones,
   goes through Serve.Protocol.int_field. *)
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
    (match Protocol.int_field ~what (String.sub s i (j - i)) with
     | Ok v -> v
     | Error e -> fail e)
  | v -> v

let nat c ~what =
  let i = c.pos in
  let j = field_end c in
  c.pos <- j + 1;
  int_at ~what c.line i j

let word c =
  let i = c.pos in
  let j = field_end c in
  c.pos <- j + 1;
  String.sub c.line i (j - i)

(* Sched.Codec.parse_alts' rules: a non-empty comma list of distinct
   non-negative ints, each read as int_of_string reads it *)
let alts c =
  let s = c.line and i = c.pos in
  let j = field_end c in
  c.pos <- j + 1;
  if i = j then fail "empty alternative list";
  let rec go i acc =
    let k = scan s ',' i j in
    let v = int_at ~what:"resource" s i k in
    if List.mem v acc then fail (Printf.sprintf "duplicate resource %d" v);
    if k = j then List.rev (v :: acc) else go (k + 1) (v :: acc)
  in
  go i []

let key c =
  let s = c.line and i = c.pos in
  if field_end c - i = 3 && s.[i] = 'i' && s.[i + 1] = 'n' && s.[i + 2] = 'f'
  then begin
    c.pos <- i + 4;
    max_int
  end
  else nat c ~what:"deadline key"

let tag c =
  let i = c.pos in
  if field_end c - i = 1 && (c.line.[i] = 't' || c.line.[i] = 'u') then begin
    c.pos <- i + 2;
    c.line.[i] = 't'
  end
  else fail (Printf.sprintf "malformed tag flag %S (want t or u)" (word c))

let finish c = if c.pos <= c.lim then fail "trailing data after the last field"

let reqinfo c =
  let rid = nat c ~what:"request id" in
  let alternatives = alts c in
  let arrival = nat c ~what:"arrival" in
  let deadline = nat c ~what:"deadline" in
  if deadline < 1 then fail (Printf.sprintf "deadline %d < 1" deadline);
  { rid; alternatives; arrival; deadline }

(* "<sender> <dst> <key> <t|u>" then the payload *)
let env c payload =
  let sender = nat c ~what:"sender" in
  let dst = nat c ~what:"destination" in
  let deadline_key = key c in
  let tagged = tag c in
  let payload = payload c in
  Data { sender; dst; deadline_key; tagged; payload }

let versioned c =
  let v = word c in
  if v <> version then
    fail (Printf.sprintf "unsupported protocol version %S (want %s)" v version)

(* "<res>[ <t> <reqinfo>[;<t> <reqinfo>]...]": each ';'-separated entry
   is read with the cursor's limit at its end.  A bare trailing space is
   an empty entry list. *)
let handoff c =
  let res = nat c ~what:"resource" in
  let len = String.length c.line in
  if c.pos >= len then begin
    c.pos <- len + 1;
    Control (Handoff { res; slots = [] })
  end
  else
    let rec entries acc =
      c.lim <- scan c.line ';' c.pos len;
      let t = nat c ~what:"slot round" in
      let ri = reqinfo c in
      finish c;
      let acc = (t, ri) :: acc in
      if c.lim = len then List.rev acc else entries acc
    in
    Control (Handoff { res; slots = entries [] })

let message c = function
  | "offer" -> env c (fun c -> Offer (reqinfo c))
  | "probe" -> env c (fun c -> Probe (reqinfo c))
  | "cancel" ->
    env c (fun c ->
        let q = nat c ~what:"request" in
        let old_res = nat c ~what:"old resource" in
        let old_t = nat c ~what:"old round" in
        Cancel { q; old_res; old_t })
  | "rival" -> env c (fun c -> Rival (reqinfo c))
  | "swap" ->
    env c (fun c ->
        let r = nat c ~what:"occupant" in
        Swap { r; q = reqinfo c })
  | "rehome" ->
    env c (fun c ->
        let res = nat c ~what:"resource" in
        Rehome { r = reqinfo c; res })
  | "loadq" -> env c (fun _ -> Loadq)
  | "assign" -> env c (fun c -> Assign (reqinfo c))
  | "accept" ->
    let q = nat c ~what:"request" in
    let res = nat c ~what:"resource" in
    let slot = nat c ~what:"slot" in
    Reply (Accept { q; res; slot })
  | "full" ->
    let q = nat c ~what:"request" in
    let res = nat c ~what:"resource" in
    Reply (Full { q; res })
  | "ack" ->
    let q = nat c ~what:"request" in
    let res = nat c ~what:"resource" in
    Reply (Ack { q; res })
  | "freeat" ->
    let q = nat c ~what:"request" in
    let res = nat c ~what:"resource" in
    let slot = nat c ~what:"slot" in
    Reply (Freeat { q; res; slot })
  | "served" ->
    let res = nat c ~what:"resource" in
    let round = nat c ~what:"round" in
    let q = nat c ~what:"request" in
    Reply (Served { res; round; q })
  | "pong" ->
    let node = nat c ~what:"node" in
    let round = nat c ~what:"round" in
    Reply (Pong { node; round })
  | "hello" ->
    versioned c;
    Control (Hello { node = nat c ~what:"node" })
  | "ping" -> Control (Ping { round = nat c ~what:"round" })
  | "join" ->
    versioned c;
    let node = nat c ~what:"node" in
    let round = nat c ~what:"round" in
    Control (Join { node; round })
  | "handoff" -> handoff c
  | _ -> fail "unknown keyword"

let parse line =
  let len = String.length line in
  if len > max_line then
    Error (Printf.sprintf "line too long (%d bytes, max %d)" len max_line)
  else
    let c = { line; pos = 0; lim = len } in
    let keyword = word c in
    match
      let m = message c keyword in
      finish c;
      m
    with
    | m -> Ok m
    | exception Malformed e -> Error (Printf.sprintf "%S message: %s" keyword e)
