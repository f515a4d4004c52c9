(* The reqsched wire protocol: one message per line, version rsp/1, in
   Sched.Codec's line grammar.  A client/server name is a single token;
   reject and error details are rest-of-line (spaces allowed, newlines
   never).  Renderers never emit '\n'; the framing layer adds it. *)

open Sched.Codec.Line

let version = Sched.Codec.version

type request = { tag : int; alternatives : int list; deadline : int }

type reject_reason =
  | Overload          (* a shard inbox was at capacity *)
  | Draining          (* server is shutting down; not admitting *)
  | Invalid of string (* malformed request; detail says why *)

type client_msg =
  | Hello of { client : string }
  | Submit of request
  | Batch of request list (* non-empty; one line, one parse, any count *)
  | Tick
  | Bye

type server_msg =
  | Welcome of { server : string }
  | Scheduled of { tag : int; round : int; resource : int }
  | Rejected of { tag : int; reason : reject_reason }
  | Expired of { tag : int }
  | Round of { round : int }
  | Error of { message : string }

(* ------------------------------------------------------------------ *)
(* rendering *)

let render_reject_reason = function
  | Overload -> "overload"
  | Draining -> "draining"
  | Invalid "" -> "invalid"
  | Invalid detail -> "invalid " ^ detail

let add_req b { tag; alternatives; deadline } =
  Sched.Codec.add_req_fields b ~first:tag ~alternatives ~deadline

let add_client b = function
  | Hello { client } -> Buffer.add_string b ("hello " ^ version ^ " " ^ client)
  | Submit r -> Buffer.add_string b "req "; add_req b r
  | Batch rs -> Buffer.add_string b "batch "; add_list b ';' add_req rs
  | Tick -> Buffer.add_string b "tick"
  | Bye -> Buffer.add_string b "bye"

let add_server b = function
  | Welcome { server } ->
    Buffer.add_string b ("welcome " ^ version ^ " " ^ server)
  | Scheduled { tag; round; resource } ->
    Buffer.add_string b "sched";
    add_field b tag; add_field b round; add_field b resource
  | Rejected { tag; reason } ->
    Buffer.add_string b "rej"; add_field b tag;
    Buffer.add_char b ' '; Buffer.add_string b (render_reject_reason reason)
  | Expired { tag } -> Buffer.add_string b "exp"; add_field b tag
  | Round { round } -> Buffer.add_string b "round"; add_field b round
  | Error { message = "" } -> Buffer.add_string b "error"
  | Error { message } -> Buffer.add_string b ("error " ^ message)

let render add m =
  let b = Buffer.create 64 in
  add b m;
  Buffer.contents b

let render_client = render add_client
let render_server = render add_server

(* ------------------------------------------------------------------ *)
(* parsing *)

(* A keyword alone on its line reads as one followed by a space: an
   empty field is left. *)
let keyword c =
  let k = word c in
  if c.pos > c.lim then c.pos <- c.lim;
  k

(* "<version> <name>" after hello/welcome *)
let greeting c ~keyword =
  versioned c;
  let name = rest c in
  if name = "" || String.contains name ' ' then
    fail (Printf.sprintf "expected '%s %s <name>'" keyword version);
  name

let request c =
  let tag, alternatives, deadline = Sched.Codec.req_fields c ~what:"tag" in
  if tag < 0 then fail (Printf.sprintf "negative tag %d" tag);
  { tag; alternatives; deadline }

let parse_client line =
  let c = cursor line in
  match
    match keyword c with
    | "req" -> Submit (request c)
    | "batch" ->
      let entry i c =
        try request c
        with Malformed m -> fail (Printf.sprintf "batch entry %d: %s" i m)
      in
      (match entries c ';' entry with
       | [] -> fail "empty batch"
       | rs -> Batch rs)
    | "tick" when line = "tick" -> Tick
    | "bye" when line = "bye" -> Bye
    | "hello" -> Hello { client = greeting c ~keyword:"hello" }
    | _ -> fail (Printf.sprintf "unknown client message %S" line)
  with
  | m -> Ok m
  | exception Malformed e -> Stdlib.Error e

let reject_reason = function
  | "overload" -> Overload
  | "draining" -> Draining
  | "invalid" -> Invalid ""
  | s when String.starts_with ~prefix:"invalid " s ->
    Invalid (String.sub s 8 (String.length s - 8))
  | s -> fail (Printf.sprintf "unknown reject reason %S" s)

let parse_server line =
  let c = cursor line in
  match
    match keyword c with
    | "sched" ->
      if fields c <> 3 then fail "expected 'sched <tag> <round> <resource>'";
      let tag = nat c ~what:"tag" in
      let round = nat c ~what:"round" in
      let resource = nat c ~what:"resource" in
      Scheduled { tag; round; resource }
    | "exp" -> Expired { tag = nat_at ~what:"tag" line c.pos c.lim }
    | "round" -> Round { round = nat_at ~what:"round" line c.pos c.lim }
    | "rej" ->
      let tag = nat c ~what:"tag" in
      Rejected { tag; reason = reject_reason (rest c) }
    | "welcome" -> Welcome { server = greeting c ~keyword:"welcome" }
    | "error" -> Error { message = rest c }
    | _ -> fail (Printf.sprintf "unknown server message %S" line)
  with
  | m -> Ok m
  | exception Malformed e -> Stdlib.Error e

let is_terminal = function
  | Scheduled _ | Rejected _ | Expired _ -> true
  | Welcome _ | Round _ | Error _ -> false

let terminal_tag = function
  | Scheduled { tag; _ } | Rejected { tag; _ } | Expired { tag } -> Some tag
  | Welcome _ | Round _ | Error _ -> None
