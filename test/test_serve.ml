(* Tests for the live scheduling service: wire protocol round-trips,
   the bounded channel, and end-to-end server/client runs on loopback
   unix sockets (exactly-one-terminal, byte-identical replay, explicit
   overload rejection, client-failure isolation, graceful drain). *)

module Protocol = Serve.Protocol
module Chan = Serve.Chan
module Server = Serve.Server
module Client = Serve.Client
module Instance = Sched.Instance
module Request = Sched.Request

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* protocol round-trips *)

(* a client/server name: one non-empty space-free token *)
let name_gen =
  QCheck.Gen.(
    string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

(* rest-of-line free text: printable, no newlines (spaces allowed) *)
let detail_gen =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; return ' ' ]) (int_range 0 12))

let request_gen =
  QCheck.Gen.(
    int_range 0 10_000 >>= fun tag ->
    list_size (int_range 1 4) (int_range 0 99) >>= fun alternatives ->
    int_range 1 20 >>= fun deadline ->
    (* the codec rejects duplicate resources *)
    let alternatives = List.sort_uniq compare alternatives in
    return { Protocol.tag; alternatives; deadline })

let client_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Protocol.Hello { client }) name_gen;
        map (fun r -> Protocol.Submit r) request_gen;
        map
          (fun rs -> Protocol.Batch rs)
          (list_size (int_range 1 6) request_gen);
        return Protocol.Tick;
        return Protocol.Bye;
      ])

let reason_gen =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Overload;
        return Protocol.Draining;
        map (fun d -> Protocol.Invalid d) detail_gen;
      ])

let server_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun server -> Protocol.Welcome { server }) name_gen;
        (int_range 0 9999 >>= fun tag ->
         int_range 0 9999 >>= fun round ->
         int_range 0 99 >>= fun resource ->
         return (Protocol.Scheduled { tag; round; resource }));
        (int_range 0 9999 >>= fun tag ->
         reason_gen >>= fun reason ->
         return (Protocol.Rejected { tag; reason }));
        map (fun tag -> Protocol.Expired { tag }) (int_range 0 9999);
        map (fun round -> Protocol.Round { round }) (int_range 0 9999);
        map (fun message -> Protocol.Error { message }) detail_gen;
      ])

let prop_client_roundtrip =
  qtest "client messages round-trip"
    (QCheck.make client_msg_gen ~print:Protocol.render_client)
    (fun m ->
       let line = Protocol.render_client m in
       (not (String.contains line '\n'))
       && Protocol.parse_client line = Ok m)

let prop_server_roundtrip =
  qtest "server messages round-trip"
    (QCheck.make server_msg_gen ~print:Protocol.render_server)
    (fun m ->
       let line = Protocol.render_server m in
       (not (String.contains line '\n'))
       && Protocol.parse_server line = Ok m)

(* Line framing: lines (empty ones included) plus an unterminated
   tail, cut at arbitrary chunk boundaries and fed from an offset inside
   a larger read buffer, come out as the non-empty lines in order, with
   exactly the tail left buffered. *)
let prop_lineio_framing =
  let line =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ' ' ]) (int_bound 4))
  in
  qtest ~count:300 "line framing survives any chunking"
    (QCheck.make
       ~print:QCheck.Print.(triple (list string) string (list int))
       QCheck.Gen.(
         triple (list_size (int_bound 12) line) line
           (list_size (int_bound 8) (int_bound 10))))
    (fun (lines, tail, cuts) ->
       let stream =
         String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail
       in
       let t = Serve.Lineio.create () and out = ref [] in
       let emit l = out := l :: !out in
       let feed s =
         (* from offset 3 of a scratch buffer with junk around the chunk *)
         let b = Bytes.make (String.length s + 6) '\n' in
         Bytes.blit_string s 0 b 3 (String.length s);
         Serve.Lineio.feed t b 3 (String.length s) emit
       in
       let rec go pos cuts =
         let rest = String.length stream - pos in
         match cuts with
         | c :: cuts when c < rest ->
           feed (String.sub stream pos c);
           go (pos + c) cuts
         | _ -> feed (String.sub stream pos rest)
       in
       go 0 cuts;
       let framed = List.rev !out and buffered = Serve.Lineio.buffered t in
       framed = List.filter (fun l -> l <> "") lines
       && buffered = String.length tail
       && (out := [];
           feed "\n";
           !out = if tail = "" then [] else [ tail ]))

(* The serve codec's accepted language, pinned line by line: each client
   line with the message it parses to or its exact error text (the
   server sends that text back in an [error] line), each server line
   with its message or [None] for a rejection.  Integer fields follow
   int_of_string (hex, sign, underscores, leading zeros, up to max_int);
   fields are separated by exactly one space; a batch is ';'-separated
   request entries, none of them empty. *)
let client_edge_cases =
  let req tag alternatives deadline =
    Ok (Protocol.Submit { Protocol.tag; alternatives; deadline })
  in
  let err e = Error e in
  let expected s =
    err (Printf.sprintf "expected '<tag> <alts> <deadline>': %S" s)
  in
  let unknown l = err (Printf.sprintf "unknown client message %S" l) in
  [
    ("req 0x10 0 1", req 16 [ 0 ] 1);
    ("req +1 0 1", req 1 [ 0 ] 1);
    ("req 1_0 0 1", req 10 [ 0 ] 1);
    ("req 007 0 1", req 7 [ 0 ] 1);
    ("req -0 0 1", req 0 [ 0 ] 1);
    ("req 4611686018427387903 0 1", req max_int [ 0 ] 1);
    ("req 1000000000000000000 0 1", req 1_000_000_000_000_000_000 [ 0 ] 1);
    ( "req 9999999999999999999 0 1",
      err "malformed tag \"9999999999999999999\"" );
    ("req 0x7fffffffffffffff 0 1", err "negative tag -1");
    ("req 0 0x1,+2,0_3,004 0b11", req 0 [ 1; 2; 3; 4 ] 3);
    ( "req 0 4611686018427387903 4611686018427387903",
      req 0 [ max_int ] max_int );
    ("req 0 0 4611686018427388000",
     err "malformed deadline \"4611686018427388000\"");
    ("req 0 0,4611686018427388000 1",
     err "malformed resource \"4611686018427388000\"");
    ("req 0  0 1", expected "0  0 1");
    ("req 0  1", err "empty alternative list");
    ("req  0 0 1", expected " 0 0 1");
    ("req 0 0 1 ", expected "0 0 1 ");
    ("req", expected "");
    ("req ", expected "");
    ("req 0 0", expected "0 0");
    ("req 0 0,0 1", err "duplicate resource 0");
    ("req 0 -1 1", err "negative resource -1");
    ("req 0 0,x 1", err "malformed resource \"x\"");
    ("req 0 , 1", err "malformed resource \"\"");
    ("req 0 0,,1 1", err "malformed resource \"\"");
    ("req 0 0;1 1", err "malformed resource \"0;1\"");
    ("req 0 0 0", err "deadline 0 must be >= 1");
    ("req -1 0 0", err "deadline 0 must be >= 1");
    ("req -1 0 1", err "negative tag -1");
    ("req x 0 1", err "malformed tag \"x\"");
    ("req x y z", err "malformed tag \"x\"");
    ("req 0 y 0", err "malformed resource \"y\"");
    ("req 0 0 x", err "malformed deadline \"x\"");
    (" req 0 0 1", unknown " req 0 0 1");
    ("req\t0 0 1", unknown "req\t0 0 1");
    ( "batch 0 0 1;1 1,2 2",
      Ok
        (Protocol.Batch
           [
             { Protocol.tag = 0; alternatives = [ 0 ]; deadline = 1 };
             { Protocol.tag = 1; alternatives = [ 1; 2 ]; deadline = 2 };
           ]) );
    ("batch", err "empty batch");
    ("batch ", err "empty batch");
    ("batch ;", err "batch entry 0: expected '<tag> <alts> <deadline>': \"\"");
    ( "batch 0 0 1;",
      err "batch entry 1: expected '<tag> <alts> <deadline>': \"\"" );
    ( "batch 0 0 1;;1 1 1",
      err "batch entry 1: expected '<tag> <alts> <deadline>': \"\"" );
    ( "batch 0 0 1 ;1 1 1",
      err "batch entry 0: expected '<tag> <alts> <deadline>': \"0 0 1 \"" );
    ( "batch 0 0 1; 1 1 1",
      err "batch entry 1: expected '<tag> <alts> <deadline>': \" 1 1 1\"" );
    ( "batch  0 0 1",
      err "batch entry 0: expected '<tag> <alts> <deadline>': \" 0 0 1\"" );
    ("batch 0 0 1;x 1 2", err "batch entry 1: malformed tag \"x\"");
    ("batch -1 0 1", err "batch entry 0: negative tag -1");
    ("hello rsp/1 x", Ok (Protocol.Hello { client = "x" }));
    ( "hello rsp/2 x",
      err "unsupported protocol version \"rsp/2\" (want rsp/1)" );
    ("hello", err "unsupported protocol version \"\" (want rsp/1)");
    ("hello ", err "unsupported protocol version \"\" (want rsp/1)");
    ("hello  rsp/1 a", err "unsupported protocol version \"\" (want rsp/1)");
    ("hello rsp/1", err "expected 'hello rsp/1 <name>'");
    ("hello rsp/1 ", err "expected 'hello rsp/1 <name>'");
    ("hello rsp/1 a b", err "expected 'hello rsp/1 <name>'");
    ("hello rsp/1 a ", err "expected 'hello rsp/1 <name>'");
    ("hellox rsp/1 a", unknown "hellox rsp/1 a");
    ("tick", Ok Protocol.Tick);
    ("bye", Ok Protocol.Bye);
    ("tick ", unknown "tick ");
    ("tick x", unknown "tick x");
    ("bye ", unknown "bye ");
    ("TICK", unknown "TICK");
    ("", unknown "");
    (" ", unknown " ");
    ("nope", unknown "nope");
    ("welcome rsp/1 s", unknown "welcome rsp/1 s");
  ]

let server_edge_cases =
  let rej reason = Some (Protocol.Rejected { tag = 5; reason }) in
  let sched = Some (Protocol.Scheduled { tag = 1; round = 2; resource = 3 }) in
  [
    ("welcome rsp/1 srv", Some (Protocol.Welcome { server = "srv" }));
    ("welcome rsp/0 x", None);
    ("welcome", None);
    ("welcome rsp/1", None);
    ("welcome rsp/1 a b", None);
    ("sched 1 2 3", sched);
    ("sched 0x1 +2 0_3", sched);
    ("sched 1 2", None);
    ("sched 1 2 3 ", None);
    ("sched 1  2 3", None);
    ("sched -1 2 3", None);
    ("sched 1 2 x", None);
    ("sched", None);
    ("rej 5 overload", rej Protocol.Overload);
    ("rej 5 draining", rej Protocol.Draining);
    ("rej 5 invalid", rej (Protocol.Invalid ""));
    ("rej 5 invalid ", rej (Protocol.Invalid ""));
    ( "rej 5 invalid resource 9 out of range (n=8)",
      rej (Protocol.Invalid "resource 9 out of range (n=8)") );
    ("rej 5 invalid  two  spaces ", rej (Protocol.Invalid " two  spaces "));
    ("rej 5", None);
    ("rej 5 ", None);
    ("rej 5 overload ", None);
    ("rej 5 invalidx", None);
    ("rej 5 nonsense", None);
    ("rej", None);
    ("rej x overload", None);
    ("rej x", None);
    ("rej -5 overload", None);
    ("exp 7", Some (Protocol.Expired { tag = 7 }));
    ("exp 0x7", Some (Protocol.Expired { tag = 7 }));
    ("exp 7 ", None);
    ("exp 1 2", None);
    ("exp", None);
    ("exp -3", None);
    ("round 3", Some (Protocol.Round { round = 3 }));
    ("round", None);
    ("round -1", None);
    ("round x", None);
    ("round 9999999999999999999", None);
    ("error", Some (Protocol.Error { message = "" }));
    ("error ", Some (Protocol.Error { message = "" }));
    ( "error line too long",
      Some (Protocol.Error { message = "line too long" }) );
    ("error  x ", Some (Protocol.Error { message = " x " }));
    ("errorx", None);
    ("hello rsp/1 x", None);
    ("tick", None);
    ("", None);
  ]

let test_protocol_edge_cases () =
  List.iter
    (fun (line, expected) ->
       match (Protocol.parse_client line, expected) with
       | Ok m, Ok e when m = e -> ()
       | Error m, Error e when m = e -> ()
       | Ok m, _ ->
         Alcotest.failf "client %S parsed as %S" line (Protocol.render_client m)
       | Error m, _ -> Alcotest.failf "client %S rejected: %s" line m)
    client_edge_cases;
  List.iter
    (fun (line, expected) ->
       match (Protocol.parse_server line, expected) with
       | Ok m, Some e when m = e -> ()
       | Ok m, Some _ ->
         Alcotest.failf "server %S parsed as %S" line (Protocol.render_server m)
       | Ok _, None -> Alcotest.failf "server %S accepted" line
       | Error e, Some _ -> Alcotest.failf "server %S rejected: %s" line e
       | Error _, None -> ())
    server_edge_cases

let test_terminal_classification () =
  let open Protocol in
  check Alcotest.(option int) "sched" (Some 3)
    (terminal_tag (Scheduled { tag = 3; round = 0; resource = 1 }));
  check Alcotest.(option int) "rej" (Some 4)
    (terminal_tag (Rejected { tag = 4; reason = Overload }));
  check Alcotest.(option int) "exp" (Some 5) (terminal_tag (Expired { tag = 5 }));
  check Alcotest.(option int) "round" None (terminal_tag (Round { round = 9 }));
  check Alcotest.bool "welcome not terminal" false
    (is_terminal (Welcome { server = "x" }))

(* ------------------------------------------------------------------ *)
(* bounded channel *)

(* Everything currently queued, oldest first, via the allocation-free
   drain the serve path uses. *)
let drain_list c =
  let buf = ref [||] in
  let n = Chan.drain_into c buf in
  Array.to_list (Array.sub !buf 0 n)

let test_chan_fifo_and_bound () =
  let c = Chan.create_spsc ~capacity:3 ~dummy:0 in
  check Alcotest.bool "push 1" true (Chan.try_push c 1);
  check Alcotest.bool "push 2" true (Chan.try_push c 2);
  check Alcotest.bool "push 3" true (Chan.try_push c 3);
  check Alcotest.bool "push 4 over capacity" false (Chan.try_push c 4);
  check Alcotest.int "length" 3 (Chan.length c);
  check Alcotest.(list int) "fifo drain" [ 1; 2; 3 ] (drain_list c);
  check Alcotest.int "empty after drain" 0 (Chan.length c);
  check Alcotest.bool "push after drain" true (Chan.try_push c 5);
  check Alcotest.(list int) "drained again" [ 5 ] (drain_list c)

(* push_slice across the ring's wrap point: the accepted prefix is
   exactly what fits, and order survives the split blit. *)
let test_chan_spsc_fifo_and_bound () =
  let c = Chan.create_spsc ~capacity:4 ~dummy:0 in
  check Alcotest.int "slice fills three" 3
    (Chan.push_slice c [| 1; 2; 3 |] ~off:0 ~len:3);
  check Alcotest.(list int) "first drain" [ 1; 2; 3 ] (drain_list c);
  (* head and tail now sit at 3: the next slice wraps *)
  check Alcotest.int "only the prefix that fits" 4
    (Chan.push_slice c [| 0; 4; 5; 6; 7; 8 |] ~off:1 ~len:5);
  check Alcotest.bool "full" false (Chan.try_push c 9);
  check Alcotest.int "length" 4 (Chan.length c);
  check Alcotest.(list int) "wrapped drain in order" [ 4; 5; 6; 7 ]
    (drain_list c);
  check Alcotest.int "empty slice" 0 (Chan.push_slice c [||] ~off:0 ~len:0);
  check Alcotest.(list int) "nothing left" [] (drain_list c)

let test_chan_capacity_bound () =
  let rejects capacity =
    match Chan.create_spsc ~capacity ~dummy:0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "0 rejected" true (rejects 0);
  check Alcotest.bool "max_capacity + 1 rejected" true
    (rejects (Chan.max_capacity + 1));
  check Alcotest.int "max_capacity" 65536 Chan.max_capacity;
  let c = Chan.create_spsc ~capacity:Chan.max_capacity ~dummy:0 in
  let src = Array.init (Chan.max_capacity + 1) Fun.id in
  check Alcotest.int "fills to max_capacity" Chan.max_capacity
    (Chan.push_slice c src ~off:0 ~len:(Array.length src));
  check Alcotest.int "drains everything" Chan.max_capacity
    (List.length (drain_list c))

(* The ring against a bounded FIFO model ([Stdlib.Queue] plus the
   capacity check): any single-threaded sequence of push / push_slice /
   length / drain observations must agree. *)
let prop_chan_bounded_fifo =
  let op_gen =
    QCheck.Gen.(pair (int_bound 3) (pair small_nat (int_bound 6)))
  in
  let capacity = 5 in
  qtest ~count:300 "behaves like a bounded FIFO model"
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
       let c = Chan.create_spsc ~capacity ~dummy:(-1) in
       let model = Queue.create () in
       let model_push v =
         if Queue.length model >= capacity then false
         else begin
           Queue.push v model;
           true
         end
       in
       let model_drain () =
         let l = List.of_seq (Queue.to_seq model) in
         Queue.clear model;
         l
       in
       let buf = ref [||] in
       List.for_all
         (fun (op, (v, len)) ->
            match op with
            | 0 -> Chan.try_push c v = model_push v
            | 1 -> Chan.length c = Queue.length model
            | 2 ->
              let n = Chan.drain_into c buf in
              Array.to_list (Array.sub !buf 0 n) = model_drain ()
            | _ ->
              let arr = Array.init len (fun i -> v + i) in
              let accepted = Chan.push_slice c arr ~off:0 ~len in
              let expected =
                Array.fold_left
                  (fun k x -> if model_push x then k + 1 else k)
                  0 arr
              in
              accepted = expected && Chan.length c = Queue.length model)
         ops
       && drain_list c = model_drain ())

(* One producer domain, one consumer domain: nothing lost, nothing
   duplicated, order preserved — the contract the serve path relies
   on. *)
let test_chan_spsc_two_domains () =
  let total = 20_000 in
  let c = Chan.create_spsc ~capacity:64 ~dummy:(-1) in
  let producer =
    Domain.spawn (fun () ->
        for v = 0 to total - 1 do
          while not (Chan.try_push c v) do
            Domain.cpu_relax ()
          done
        done)
  in
  let buf = ref [||] in
  let seen = ref 0 and ok = ref true in
  while !seen < total do
    let n = Chan.drain_into c buf in
    for i = 0 to n - 1 do
      if !buf.(i) <> !seen + i then ok := false
    done;
    seen := !seen + n;
    if n = 0 then Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "values arrive in order, none lost" true !ok;
  check Alcotest.int "nothing extra" 0 (Chan.length c)

(* ------------------------------------------------------------------ *)
(* address parsing *)

let test_addr_of_string () =
  (match Server.addr_of_string "tcp:127.0.0.1:7477" with
   | Ok (Server.Tcp ("127.0.0.1", 7477)) -> ()
   | _ -> Alcotest.fail "tcp parse");
  (match Server.addr_of_string "unix:/tmp/x.sock" with
   | Ok (Server.Unix_sock "/tmp/x.sock") -> ()
   | _ -> Alcotest.fail "unix parse");
  List.iter
    (fun s ->
       match Server.addr_of_string s with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%S accepted" s)
    [ ""; "tcp:"; "tcp:host"; "tcp:host:notaport"; "unix:"; "ftp:x" ]

(* ------------------------------------------------------------------ *)
(* end-to-end on loopback unix sockets *)

let fresh_sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched_test_%d_%d.sock" (Unix.getpid ()) !counter)

(* Start a server, run [f], then drain and return (f's result, final
   metrics snapshot). *)
let with_server ?(shards = 2) ?(domains = 0) ?(n = 8) ?(d = 4)
    ?(queue_capacity = 1024) ?(max_batch = 512) ?(outbox_capacity = 4096)
    ?(tick = `Manual) f =
  let path = fresh_sock_path () in
  let cfg =
    {
      Server.addr = Server.Unix_sock path;
      n_resources = n;
      d;
      shards;
      domains;
      strategy = (fun ~shard:_ ~metrics:_ -> Strategies.Global.balance ());
      tick;
      queue_capacity;
      max_batch;
      outbox_capacity;
      read_timeout = 10.0;
      name = "test";
    }
  in
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    let finally () =
      Server.drain srv;
      ignore (Server.wait srv);
      try Sys.remove path with Sys_error _ -> ()
    in
    let result =
      try f (Server.Unix_sock path) srv
      with e ->
        finally ();
        raise e
    in
    Server.drain srv;
    let snap = Server.wait srv in
    (try Sys.remove path with Sys_error _ -> ());
    (result, snap)

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> v
  | Some _ | None -> 0

let random_instance ~n ~d ~rounds ~load ~seed =
  let rng = Prelude.Rng.create ~seed in
  Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load ()

let run_open ?(tick = `Manual) addr inst =
  match Client.open_loop ~addr ~inst ~tick () with
  | Error m -> Alcotest.failf "open_loop: %s" m
  | Ok r -> r

let test_e2e_exactly_one_terminal () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:30 ~load:1.5 ~seed:11 in
  let r, snap =
    with_server ~shards:2 ~n:8 ~d:4 (fun addr _ -> run_open addr inst)
  in
  check Alcotest.int "every request submitted"
    (Instance.n_requests inst) r.Client.submitted;
  check Alcotest.int "terminals partition the submissions"
    r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.int "one decision per tag" r.Client.submitted
    (Array.length r.Client.decisions);
  check Alcotest.bool "something got scheduled" true (r.Client.scheduled > 0);
  (* server-side accounting agrees with the client's view *)
  check Alcotest.int "server served counter" r.Client.scheduled
    (counter snap "serve.served");
  check Alcotest.int "server expired counter" r.Client.expired
    (counter snap "serve.expired");
  check Alcotest.int "no client errors" 0 (counter snap "serve.client_errors");
  check Alcotest.int "no dropped responses" 0
    (counter snap "serve.responses_dropped")

let decisions_of_fresh_run ~shards inst =
  let r, _ = with_server ~shards ~n:8 ~d:4 (fun addr _ -> run_open addr inst) in
  Client.render_decisions r

let test_e2e_replay_deterministic () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.3 ~seed:5 in
  List.iter
    (fun shards ->
       let a = decisions_of_fresh_run ~shards inst in
       let b = decisions_of_fresh_run ~shards inst in
       check Alcotest.string
         (Printf.sprintf "byte-identical decisions at %d shard(s)" shards)
         a b;
       check Alcotest.bool "log is non-trivial" true (String.length a > 0))
    [ 1; 2 ]

(* The load-bearing property of the worker-domain rebuild: under manual
   ticks, the decision stream and the decision-derived counters are a
   function of the instance alone, not of how many domains step the
   shards.  (serve.outbox_stalls is excluded — it counts backpressure
   timing, which legitimately varies run to run.) *)
let test_e2e_domains_invariant () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.4 ~seed:31 in
  let run domains =
    let r, snap =
      with_server ~shards:4 ~domains ~n:8 ~d:4 (fun addr _ ->
          run_open addr inst)
    in
    (Client.render_decisions r, snap)
  in
  let counters snap =
    List.filter_map
      (function
        | ("serve.outbox_stalls", _) -> None
        | (k, Obs.Metrics.Counter v) -> Some (k, v)
        | _ -> None)
      snap
    |> List.sort compare
  in
  let base_dec, base_snap = run 1 in
  check Alcotest.bool "log is non-trivial" true (String.length base_dec > 0);
  List.iter
    (fun domains ->
       let dec, snap = run domains in
       check Alcotest.string
         (Printf.sprintf "decisions byte-identical at %d domain(s)" domains)
         base_dec dec;
       check
         Alcotest.(list (pair string int))
         (Printf.sprintf "merged counters identical at %d domain(s)" domains)
         (counters base_snap) (counters snap))
    [ 2; 4 ]

let test_e2e_codec_replay_equals_original () =
  (* save the trace, reload it, and check the reloaded instance drives
     the server to the same decisions — the save/load/wire grammar is
     one and the same *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:20 ~load:1.2 ~seed:23 in
  let path = Filename.temp_file "reqsched_trace" ".rsp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Sched.Codec.save ~path inst;
       let inst' =
         match Sched.Codec.load ~path with
         | Ok i -> i
         | Error m -> Alcotest.failf "trace load: %s" m
       in
       let a = decisions_of_fresh_run ~shards:2 inst in
       let b = decisions_of_fresh_run ~shards:2 inst' in
       check Alcotest.string "trace replay matches live run" a b)

let test_e2e_interval_tick () =
  let inst = random_instance ~n:6 ~d:3 ~rounds:15 ~load:1.0 ~seed:7 in
  let r, _ =
    with_server ~shards:2 ~n:6 ~d:3 ~tick:(`Every 0.01) (fun addr _ ->
        run_open ~tick:(`Every 0.01) addr inst)
  in
  check Alcotest.int "all terminals collected" r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired)

let test_e2e_overload_rejects () =
  (* ten same-resource requests land in one un-ticked round against a
     capacity-1 inbox: one admitted, nine explicit overload rejects *)
  let inst =
    Instance.build ~n_resources:8 ~d:4
      (List.init 10 (fun _ ->
           Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:4))
  in
  let r, snap =
    with_server ~shards:2 ~n:8 ~d:4 ~queue_capacity:1 (fun addr _ ->
        run_open addr inst)
  in
  check Alcotest.int "one admitted and served" 1 r.Client.scheduled;
  check Alcotest.int "rest rejected, not dropped" 9 r.Client.rejected;
  check Alcotest.int "overload counter" 9
    (counter snap "serve.rejected.overload");
  check Alcotest.int "still exactly one terminal each" 10
    (Array.length r.Client.decisions)

let test_e2e_closed_loop () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:10 ~load:1.0 ~seed:9 in
  let r, _ =
    with_server ~shards:2 ~n:8 ~d:4 ~tick:(`Every 0.005) (fun addr _ ->
        match Client.closed_loop ~addr ~inst ~users:8 ~total:60 () with
        | Error m -> Alcotest.failf "closed_loop: %s" m
        | Ok r -> r)
  in
  check Alcotest.int "total resolved" 60
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.int "total submitted" 60 r.Client.submitted

let test_e2e_client_failure_isolated () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:12 ~load:1.2 ~seed:31 in
  let (), snap =
    with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
        (* rude client: greet, submit with requests in flight, vanish *)
        (match Client.connect addr ~client:"rude" with
         | Error m -> Alcotest.failf "rude connect: %s" m
         | Ok conn ->
           List.iter
             (fun tag ->
                match
                  Client.send conn
                    (Protocol.Submit
                       { Protocol.tag; alternatives = [ 0; 4 ]; deadline = 2 })
                with
                | Ok () -> ()
                | Error m -> Alcotest.failf "rude submit: %s" m)
             [ 0; 1; 2 ];
           Client.close conn);
        (* give the I/O loop a moment to observe the EOF *)
        Unix.sleepf 0.1;
        (* a well-behaved client is unaffected *)
        let r = run_open addr inst in
        check Alcotest.int "healthy client unaffected" r.Client.submitted
          (r.Client.scheduled + r.Client.rejected + r.Client.expired))
  in
  check Alcotest.bool "abrupt close with inflight counted" true
    (counter snap "serve.client_errors" >= 1);
  check Alcotest.int "no shard crashed" 0 (counter snap "serve.shard_crashes")

let test_e2e_draining_rejects_new_submissions () =
  (* a slow interval ticker keeps the in-flight request's window open
     long enough that the drain is still in progress when the late
     submission arrives *)
  let (), snap =
    with_server ~shards:1 ~n:4 ~d:3 ~tick:(`Every 0.15) (fun addr srv ->
        match Client.connect addr ~client:"late" with
        | Error m -> Alcotest.failf "connect: %s" m
        | Ok conn ->
          (match
             Client.send conn
               (Protocol.Submit
                  { Protocol.tag = 0; alternatives = [ 0 ]; deadline = 3 })
           with
           | Ok () -> ()
           | Error m -> Alcotest.failf "inflight send: %s" m);
          Unix.sleepf 0.03;
          Server.drain srv;
          Unix.sleepf 0.03;
          (match
             Client.send conn
               (Protocol.Submit
                  { Protocol.tag = 1; alternatives = [ 1 ]; deadline = 1 })
           with
           | Ok () -> ()
           | Error m -> Alcotest.failf "late send: %s" m);
          (* collect both terminals: the late one a draining reject, the
             in-flight one served to its deadline *)
          let seen = Hashtbl.create 4 in
          let rec collect () =
            if Hashtbl.length seen < 2 then
              match Client.recv ~timeout:5.0 conn with
              | Ok msg ->
                (match Protocol.terminal_tag msg with
                 | Some tag -> Hashtbl.replace seen tag msg
                 | None -> ());
                collect ()
              | Error m -> Alcotest.failf "recv: %s" m
          in
          collect ();
          (match Hashtbl.find_opt seen 1 with
           | Some (Protocol.Rejected { reason = Protocol.Draining; _ }) -> ()
           | Some m ->
             Alcotest.failf "expected draining reject for tag 1, got %S"
               (Protocol.render_server m)
           | None -> Alcotest.fail "no terminal for tag 1");
          (match Hashtbl.find_opt seen 0 with
           | Some (Protocol.Scheduled _) -> ()
           | Some m ->
             Alcotest.failf "expected tag 0 served during drain, got %S"
               (Protocol.render_server m)
           | None -> Alcotest.fail "no terminal for tag 0");
          Client.close conn)
  in
  check Alcotest.bool "draining reject counted" true
    (counter snap "serve.rejected.draining" >= 1)

(* ------------------------------------------------------------------ *)
(* batching, outbox backpressure, and listener/resolver failure modes *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_e2e_batched_replay_identical () =
  (* the batch frame is pure wire-level chunking: for every batch size
     the decision log must be byte-identical to per-line submission *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:2.0 ~seed:41 in
  let run batch =
    let r, snap =
      with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
          match Client.open_loop ~addr ~inst ~tick:`Manual ~batch () with
          | Error m -> Alcotest.failf "open_loop batch=%d: %s" batch m
          | Ok r -> r)
    in
    (Client.render_decisions r, counter snap "serve.batches_in")
  in
  let baseline, frames1 = run 1 in
  check Alcotest.bool "log is non-trivial" true (String.length baseline > 0);
  check Alcotest.int "batch=1 stays on the per-line frame" 0 frames1;
  List.iter
    (fun batch ->
       let log, frames = run batch in
       check Alcotest.string
         (Printf.sprintf "batch=%d decisions byte-identical" batch)
         baseline log;
       check Alcotest.bool
         (Printf.sprintf "batch=%d actually sent batch frames" batch)
         true (frames > 0))
    [ 3; 64 ]

let test_e2e_outbox_overflow_no_reply_dropped () =
  (* a capacity-1 outbox forces the shards to stall on nearly every
     reply; the stall must be counted and every tag must still get its
     terminal — the silent-drop bug this PR fixes *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:20 ~load:3.0 ~seed:17 in
  let r, snap =
    with_server ~shards:2 ~n:8 ~d:4 ~outbox_capacity:1 (fun addr _ ->
        run_open addr inst)
  in
  check Alcotest.int "every tag still gets exactly one terminal"
    r.Client.submitted
    (Array.length r.Client.decisions);
  check Alcotest.int "terminals partition the submissions" r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.bool "the capacity-1 outbox actually stalled" true
    (counter snap "serve.outbox_stalls" > 0);
  check Alcotest.int "no dropped responses" 0
    (counter snap "serve.responses_dropped")

let test_e2e_oversize_batch_rejected () =
  (* a batch over the server's limit is rejected whole — one terminal
     per entry, nothing admitted, nothing dropped *)
  let (), snap =
    with_server ~shards:2 ~n:8 ~d:4 ~max_batch:2 (fun addr _ ->
        match Client.connect addr ~client:"big" with
        | Error m -> Alcotest.failf "connect: %s" m
        | Ok conn ->
          let reqs =
            List.init 3 (fun tag ->
                { Protocol.tag; alternatives = [ tag ]; deadline = 2 })
          in
          (match Client.send conn (Protocol.Batch reqs) with
           | Ok () -> ()
           | Error m -> Alcotest.failf "send: %s" m);
          let seen = ref 0 in
          while !seen < 3 do
            match Client.recv ~timeout:5.0 conn with
            | Ok (Protocol.Rejected { reason = Protocol.Invalid _; _ }) ->
              incr seen
            | Ok msg ->
              Alcotest.failf "expected invalid reject, got %S"
                (Protocol.render_server msg)
            | Error m -> Alcotest.failf "recv: %s" m
          done;
          Client.close conn)
  in
  check Alcotest.int "nothing reached a shard" 0 (counter snap "serve.served")

let test_e2e_line_too_long () =
  (* a line over the limit is refused even when its newline arrives
     in the same read as the rest of it *)
  let (), snap =
    with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
        match Client.connect addr ~client:"long" with
        | Error m -> Alcotest.failf "connect: %s" m
        | Ok conn ->
          let reqs =
            List.init 5999 (fun i ->
                let tag = if i < 5 then 1_000_000 + i else 100_000 + i in
                { Protocol.tag; alternatives = [ 0 ]; deadline = 1 })
          in
          let msg = Protocol.Batch reqs in
          check Alcotest.int "a 66,000-byte line" 66_000
            (String.length (Protocol.render_client msg ^ "\n"));
          (match Client.send conn msg with
           | Ok () -> ()
           | Error m -> Alcotest.failf "send: %s" m);
          (match Client.recv ~timeout:5.0 conn with
           | Ok (Protocol.Error { message }) ->
             check Alcotest.string "error text" "line too long" message
           | Ok msg ->
             Alcotest.failf "expected error line too long, got %S"
               (Protocol.render_server msg)
           | Error m -> Alcotest.failf "recv: %s" m);
          Client.close conn)
  in
  check Alcotest.int "nothing admitted" 0 (counter snap "serve.admitted")

(* Write [bytes] to the server in one write, then read until the server
   closes the connection; returns what it sent. *)
let raw_exchange addr bytes =
  let path =
    match addr with
    | Server.Unix_sock p -> p
    | Server.Tcp _ -> Alcotest.fail "raw_exchange: unix sockets only"
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX path);
       check Alcotest.int "one write" (String.length bytes)
         (Unix.write_substring fd bytes 0 (String.length bytes));
       let got = Buffer.create 128 and chunk = Bytes.create 4096 in
       let deadline = Unix.gettimeofday () +. 5.0 in
       let rec loop () =
         if Unix.gettimeofday () > deadline then
           Alcotest.fail "server did not close the connection"
         else
           match Unix.select [ fd ] [] [] 0.25 with
           | [], _, _ -> loop ()
           | _ ->
             let n = Unix.read fd chunk 0 (Bytes.length chunk) in
             if n > 0 then begin
               Buffer.add_subbytes got chunk 0 n;
               loop ()
             end
       in
       loop ();
       Buffer.contents got)

let test_e2e_nothing_after_closing () =
  (* once a connection starts closing — a protocol error or [bye] — the
     rest of that read is dropped unparsed: the valid [req] lines after
     it are neither admitted nor answered into a closed connection *)
  List.iter
    (fun (what, first, expect) ->
       let reply, snap =
         with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
             raw_exchange addr
               ("hello rsp/1 x\n" ^ first ^ "req 7 0 1\nreq 8 1 1\n"))
       in
       check Alcotest.bool (what ^ ": reply") true
         (contains_sub ~sub:expect reply);
       check Alcotest.int (what ^ ": nothing admitted") 0
         (counter snap "serve.admitted");
       check Alcotest.int (what ^ ": no reply dropped") 0
         (counter snap "serve.responses_dropped"))
    [
      ("protocol error", "req x 0 1\n", "error malformed tag \"x\"");
      ("bye", "bye\n", "welcome");
    ]

let base_cfg addr =
  {
    Server.addr;
    n_resources = 8;
    d = 4;
    shards = 2;
    domains = 0;
    strategy = (fun ~shard:_ ~metrics:_ -> Strategies.Global.balance ());
    tick = `Manual;
    queue_capacity = 64;
    max_batch = 512;
    outbox_capacity = 64;
    read_timeout = 10.0;
    name = "test";
  }

let test_start_bad_hostname () =
  (* an unresolvable host must come back as a clean [Error], not an
     uncaught [Not_found] out of gethostbyname *)
  match Server.start (base_cfg (Server.Tcp ("no-such-host.invalid", 1))) with
  | Error m ->
    check Alcotest.bool "error names the host" true
      (contains_sub ~sub:"no-such-host.invalid" m)
  | Ok srv ->
    Server.drain srv;
    ignore (Server.wait srv);
    Alcotest.fail "start succeeded on an unresolvable host"

let test_start_refuses_non_socket_path () =
  (* a regular file at the unix-socket path is someone else's data: the
     server must refuse to start and leave the file untouched *)
  let path = Filename.temp_file "reqsched_notsock" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out path in
       output_string oc "precious\n";
       close_out oc;
       (match Server.start (base_cfg (Server.Unix_sock path)) with
        | Error m ->
          check Alcotest.bool "error says why" true
            (contains_sub ~sub:"not a socket" m)
        | Ok srv ->
          Server.drain srv;
          ignore (Server.wait srv);
          Alcotest.fail "server started over a regular file");
       let ic = open_in path in
       let line = input_line ic in
       close_in ic;
       check Alcotest.string "file contents preserved" "precious" line)

(* Queue capacities are bounded by the eagerly allocated ring: out of
   range is a clean [Error] naming the field, the ceiling itself starts
   and drains like any other server. *)
let test_start_capacity_bounds () =
  let path = fresh_sock_path () in
  let cfg = base_cfg (Server.Unix_sock path) in
  List.iter
    (fun (field, cfg) ->
       match Server.start cfg with
       | Error m ->
         check Alcotest.string
           (Printf.sprintf "%s error" field)
           (field ^ " must be in 1..65536") m
       | Ok srv ->
         Server.drain srv;
         ignore (Server.wait srv);
         Alcotest.failf "server started with an out-of-range %s" field)
    [ ("queue_capacity", { cfg with queue_capacity = 0 });
      ("queue_capacity", { cfg with queue_capacity = 65537 });
      ("outbox_capacity", { cfg with outbox_capacity = 0 });
      ("outbox_capacity", { cfg with outbox_capacity = 65537 }) ];
  let inst = random_instance ~n:8 ~d:4 ~rounds:10 ~load:1.2 ~seed:3 in
  let r, snap =
    with_server ~queue_capacity:65536 ~outbox_capacity:65536 (fun addr _ ->
        run_open addr inst)
  in
  check Alcotest.int "every request submitted" (Instance.n_requests inst)
    r.Client.submitted;
  check Alcotest.int "terminals partition the submissions" r.Client.submitted
    (r.Client.scheduled + r.Client.expired + r.Client.rejected);
  check Alcotest.int "no client errors" 0 (counter snap "serve.client_errors")

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          prop_client_roundtrip;
          prop_server_roundtrip;
          prop_lineio_framing;
          Alcotest.test_case "parse edge cases" `Quick test_protocol_edge_cases;
          Alcotest.test_case "terminal classification" `Quick
            test_terminal_classification;
        ] );
      ( "chan",
        [
          Alcotest.test_case "fifo and bound" `Quick test_chan_fifo_and_bound;
          Alcotest.test_case "spsc fifo and bound" `Quick
            test_chan_spsc_fifo_and_bound;
          Alcotest.test_case "capacity bound" `Quick test_chan_capacity_bound;
          prop_chan_bounded_fifo;
          Alcotest.test_case "spsc across two domains" `Quick
            test_chan_spsc_two_domains;
        ] );
      ( "addr",
        [ Alcotest.test_case "parse" `Quick test_addr_of_string ] );
      ( "e2e",
        [
          Alcotest.test_case "exactly one terminal" `Quick
            test_e2e_exactly_one_terminal;
          Alcotest.test_case "replay deterministic" `Quick
            test_e2e_replay_deterministic;
          Alcotest.test_case "domain-count invariant" `Quick
            test_e2e_domains_invariant;
          Alcotest.test_case "codec trace replays identically" `Quick
            test_e2e_codec_replay_equals_original;
          Alcotest.test_case "interval ticker" `Quick test_e2e_interval_tick;
          Alcotest.test_case "overload rejects explicitly" `Quick
            test_e2e_overload_rejects;
          Alcotest.test_case "closed loop" `Quick test_e2e_closed_loop;
          Alcotest.test_case "client failure isolated" `Quick
            test_e2e_client_failure_isolated;
          Alcotest.test_case "draining rejects" `Quick
            test_e2e_draining_rejects_new_submissions;
          Alcotest.test_case "batched replay byte-identical" `Quick
            test_e2e_batched_replay_identical;
          Alcotest.test_case "outbox overflow drops no reply" `Quick
            test_e2e_outbox_overflow_no_reply_dropped;
          Alcotest.test_case "line over the limit rejected" `Quick
            test_e2e_line_too_long;
          Alcotest.test_case "oversize batch rejected whole" `Quick
            test_e2e_oversize_batch_rejected;
          Alcotest.test_case "nothing handled after closing" `Quick
            test_e2e_nothing_after_closing;
        ] );
      ( "start",
        [
          Alcotest.test_case "bad hostname is a clean error" `Quick
            test_start_bad_hostname;
          Alcotest.test_case "refuses non-socket path" `Quick
            test_start_refuses_non_socket_path;
          Alcotest.test_case "queue capacity bounds" `Quick
            test_start_capacity_bounds;
        ] );
    ]
