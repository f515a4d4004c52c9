(* Inter-node wire grammar: a keyword and space-separated fields,
   written and read with Sched.Codec's line primitives.  The LDF key
   renders max_int as "inf" (cancel messages outrank everything, and
   4611686018427387903 on the wire would be noise, not meaning).  The
   transport renders and parses back every message it carries, so both
   directions are on the cluster's per-message path. *)

open Sched.Codec.Line
module Request = Sched.Request

let max_line = max_line

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

let add_reqinfo b ri =
  add_field b ri.rid;
  Buffer.add_char b ' ';
  add_alts b ri.alternatives;
  add_field b ri.arrival;
  add_field b ri.deadline

let add_env b keyword e =
  Buffer.add_string b keyword;
  add_field b e.sender;
  add_field b e.dst;
  if e.deadline_key = max_int then Buffer.add_string b " inf"
  else add_field b e.deadline_key;
  Buffer.add_string b (if e.tagged then " t" else " u")

let add_data b e =
  match e.payload with
  | Offer ri -> add_env b "offer" e; add_reqinfo b ri
  | Probe ri -> add_env b "probe" e; add_reqinfo b ri
  | Cancel { q; old_res; old_t } ->
    add_env b "cancel" e;
    add_field b q; add_field b old_res; add_field b old_t
  | Rival ri -> add_env b "rival" e; add_reqinfo b ri
  | Swap { r; q } -> add_env b "swap" e; add_field b r; add_reqinfo b q
  | Rehome { r; res } ->
    add_env b "rehome" e; add_field b res; add_reqinfo b r
  | Loadq -> add_env b "loadq" e
  | Assign ri -> add_env b "assign" e; add_reqinfo b ri

let add_reply b = function
  | Accept { q; res; slot } ->
    Buffer.add_string b "accept";
    add_field b q; add_field b res; add_field b slot
  | Full { q; res } ->
    Buffer.add_string b "full"; add_field b q; add_field b res
  | Ack { q; res } ->
    Buffer.add_string b "ack"; add_field b q; add_field b res
  | Freeat { q; res; slot } ->
    Buffer.add_string b "freeat";
    add_field b q; add_field b res; add_field b slot
  | Served { res; round; q } ->
    Buffer.add_string b "served";
    add_field b res; add_field b round; add_field b q
  | Pong { node; round } ->
    Buffer.add_string b "pong"; add_field b node; add_field b round

let add_control b = function
  | Hello { node } ->
    Buffer.add_string b "hello ";
    Buffer.add_string b Sched.Codec.version;
    add_field b node
  | Ping { round } -> Buffer.add_string b "ping"; add_field b round
  | Join { node; round } ->
    Buffer.add_string b "join "; Buffer.add_string b Sched.Codec.version;
    add_field b node; add_field b round
  | Handoff { res; slots } ->
    Buffer.add_string b "handoff";
    add_field b res;
    if slots <> [] then Buffer.add_char b ' ';
    add_list b ';' (fun b (t, ri) -> add_int b t; add_reqinfo b ri) slots

let render m =
  let b = Buffer.create 64 in
  (match m with
   | Data e -> add_data b e
   | Reply r -> add_reply b r
   | Control c -> add_control b c);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing *)

let key c =
  let s = c.line and i = next c in
  if c.pos - i = 4 && s.[i] = 'i' && s.[i + 1] = 'n' && s.[i + 2] = 'f' then
    max_int
  else nat_at ~what:"deadline key" s i (c.pos - 1)

let tag c =
  let i = next c in
  match if c.pos - i = 2 then c.line.[i] else ' ' with
  | 't' -> true
  | 'u' -> false
  | _ ->
    fail
      (Printf.sprintf "malformed tag flag %S (want t or u)"
         (String.sub c.line i (c.pos - 1 - i)))

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

(* "<res>[ <t> <reqinfo>[;<t> <reqinfo>]...]"; a bare trailing space is
   an empty entry list *)
let handoff c =
  let res = nat c ~what:"resource" in
  let slot _ c =
    let t = nat c ~what:"slot round" in
    (t, reqinfo c)
  in
  Control (Handoff { res; slots = entries c ';' slot })

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
    let c = cursor line in
    let keyword = word c in
    match
      let m = message c keyword in
      finish c;
      m
    with
    | m -> Ok m
    | exception Malformed e -> Error (Printf.sprintf "%S message: %s" keyword e)
