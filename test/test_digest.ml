(* Byte-identity gate for every stochastic generator.

   Each case renders one fixed-parameter output (an instance through
   [Sched.Codec.to_string], a placement as its replica table) and pins
   the MD5 of that text.  The digests were recorded once and are never
   edited: a refactor of a generator passes only if every instance it
   produces stays byte-identical, which is what keeps the experiment
   tables, the golden files and the benchmark inputs unchanged.  When
   a case fails, the generator changed its draws; fix the generator. *)

module Placement = Workload.Placement
module Trace = Workload.Trace
module Zoo = Workload.Zoo
module RW = Adversary.Random_workload
module Rng = Prelude.Rng

let bursty = RW.Bursty

let codec = Sched.Codec.to_string

let random ?alternatives ?profile ~seed () =
  codec
    (RW.make ~rng:(Rng.create ~seed) ~n:8 ~d:4 ~rounds:60 ~load:1.1
       ?alternatives ?profile ())

let of_item (p : Placement.t) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun ds ->
             String.concat " " (Array.to_list (Array.map string_of_int ds)))
          p.Placement.of_item))

let placement ~seed =
  Placement.random ~rng:(Rng.create ~seed) ~disks:8 ~items:40 ~copies:2

(* A seeded stream of every serve message kind, rendered one per line.
   Integer fields mix 0, 1..9999, wide values and max_int - 1; free
   text mixes tokens, spaces and the empty string. *)
module Protocol = Serve.Protocol

let serve_lines ~seed render gen =
  let rng = Rng.create ~seed in
  let b = Buffer.create 65536 in
  for _ = 1 to 2000 do
    Buffer.add_string b (render (gen rng));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let value rng =
  match Rng.int rng 4 with
  | 0 -> 0
  | 1 -> Rng.int rng 10_000
  | 2 -> Rng.int rng (max_int - 1)
  | _ -> max_int - 1

let token rng =
  String.init (1 + Rng.int rng 8) (fun _ -> Char.chr (97 + Rng.int rng 26))

let text rng =
  String.concat " " (List.init (Rng.int rng 4) (fun _ -> token rng))

let request rng =
  let alternatives =
    Rng.distinct ~k:(1 + Rng.int rng 3) (fun () -> value rng)
  in
  { Protocol.tag = value rng; alternatives; deadline = 1 + value rng }

let client_msg rng =
  match Rng.int rng 5 with
  | 0 -> Protocol.Hello { client = token rng }
  | 1 -> Protocol.Submit (request rng)
  | 2 -> Protocol.Batch (List.init (1 + Rng.int rng 5) (fun _ -> request rng))
  | 3 -> Protocol.Tick
  | _ -> Protocol.Bye

let server_msg rng =
  match Rng.int rng 6 with
  | 0 -> Protocol.Welcome { server = token rng }
  | 1 ->
    let tag = value rng in
    let round = value rng in
    Protocol.Scheduled { tag; round; resource = value rng }
  | 2 ->
    let tag = value rng in
    let reason =
      match Rng.int rng 3 with
      | 0 -> Protocol.Overload
      | 1 -> Protocol.Draining
      | _ -> Protocol.Invalid (text rng)
    in
    Protocol.Rejected { tag; reason }
  | 3 -> Protocol.Expired { tag = value rng }
  | 4 -> Protocol.Round { round = value rng }
  | _ -> Protocol.Error { message = text rng }

let cases =
  [
    ("serve client lines", fun () ->
        serve_lines ~seed:51 Protocol.render_client client_msg);
    ("serve server lines", fun () ->
        serve_lines ~seed:52 Protocol.render_server server_msg);
    ("random uniform", fun () -> random ~seed:11 ());
    ("random zipf 1.2", fun () -> random ~seed:12 ~profile:(RW.Zipf 1.2) ());
    ("random bursty", fun () -> random ~seed:13 ~profile:bursty ());
    ("random alternatives 1", fun () -> random ~seed:14 ~alternatives:1 ());
    ("random alternatives 4", fun () -> random ~seed:15 ~alternatives:4 ());
    ( "random zipf alternatives 4",
      fun () -> random ~seed:16 ~alternatives:4 ~profile:(RW.Zipf 1.2) () );
    ( "mixed deadlines",
      fun () ->
        codec
          (RW.make_mixed_deadlines ~rng:(Rng.create ~seed:17) ~n:5 ~d:4
             ~rounds:60 ~load:1.2 ()) );
    ( "mixed deadlines alternatives 3",
      fun () ->
        codec
          (RW.make_mixed_deadlines ~rng:(Rng.create ~seed:18) ~n:6 ~d:5
             ~rounds:40 ~load:0.9 ~alternatives:3 ()) );
    ( "placement random",
      fun () ->
        of_item
          (Placement.random ~rng:(Rng.create ~seed:21) ~disks:9 ~items:60
             ~copies:3) );
    ( "placement random copies = disks",
      fun () ->
        of_item
          (Placement.random ~rng:(Rng.create ~seed:22) ~disks:4 ~items:10
             ~copies:4) );
    ( "placement partner",
      fun () -> of_item (Placement.partner ~disks:7 ~items:30 ~copies:3) );
    ( "placement striped",
      fun () -> of_item (Placement.striped ~disks:8 ~items:30 ~copies:3) );
    ( "placement striped copies = disks",
      fun () -> of_item (Placement.striped ~disks:5 ~items:12 ~copies:5) );
    ( "trace point requests",
      fun () ->
        codec
          (Trace.point_requests ~rng:(Rng.create ~seed:31)
             ~placement:(placement ~seed:30) ~rounds:50 ~load:0.9 ~d:4 ()) );
    ( "trace point requests zipf 1.4",
      fun () ->
        codec
          (Trace.point_requests ~rng:(Rng.create ~seed:32)
             ~placement:(placement ~seed:30) ~rounds:40 ~load:1.2 ~d:3
             ~zipf:1.4 ()) );
    ( "trace sessions",
      fun () ->
        let inst, stats =
          Trace.sessions ~rng:(Rng.create ~seed:33)
            ~placement:(placement ~seed:30) ~rounds:60
            ~arrivals_per_round:1.5 ~mean_length:4 ~d:4 ()
        in
        Printf.sprintf "%s\nstarted %d mean_length %h" (codec inst)
          stats.Trace.started stats.Trace.mean_length );
  ]
  @ List.concat_map
      (fun (f : Zoo.family) ->
         [
           ( "zoo " ^ f.Zoo.key,
             fun () ->
               codec
                 (f.Zoo.generate ~n:6 ~d:3 ~rounds:40 ~load:f.Zoo.default_load
                    ~seed:41) );
           ( "zoo " ^ f.Zoo.key ^ " n=1",
             fun () ->
               codec
                 (f.Zoo.generate ~n:1 ~d:2 ~rounds:12 ~load:1.0 ~seed:42) );
         ])
      Zoo.families

let expected =
  [
    ("serve client lines", "6bf34446acb1c199f54920a88065a5ed");
    ("serve server lines", "48f18acf78ac852a53abe101b3577007");
    ("random uniform", "ac0a6c690cdc8a75945a264f8cf9fc72");
    ("random zipf 1.2", "86b2f0df1ab99662c2f77b265131a5b2");
    ("random bursty", "76b50164fba658073b77df0cb7520387");
    ("random alternatives 1", "ee3ec968a56617be6983c771998233f6");
    ("random alternatives 4", "086ed7e5e0174812ad1862ca0b345657");
    ("random zipf alternatives 4", "ab8fd035df83601f37ab6a3ec62e4ec2");
    ("mixed deadlines", "767df682238689f6f70a83410ed337a5");
    ("mixed deadlines alternatives 3", "0cb2c7837ca7105f57272852f05ed2e1");
    ("placement random", "c29103325c2cd4c946d33d2c9a50da7a");
    ("placement random copies = disks", "87f03583f737ae781d350a92af8a7553");
    ("placement partner", "7c2761cd036b6248a41297d3dbaf8a1c");
    ("placement striped", "ad02402c43ce4eff74b608b8f2d1c3c9");
    ("placement striped copies = disks", "c1cd930ead81b9c4507b1ae10b327d8a");
    ("trace point requests", "57e585f0962bc18958e6300b90cfcbe8");
    ("trace point requests zipf 1.4", "579b959235ce93e3187a3497f13a494c");
    ("trace sessions", "a10ffaf75717032643ac4811711cd48a");
    ("zoo hotspot", "340ac113fe092cb785f819805b30c498");
    ("zoo hotspot n=1", "1226d29a09ebc3e6f1936a114c9269cc");
    ("zoo diurnal", "e66a9e1bf26695b193702c43824ce1fa");
    ("zoo diurnal n=1", "924f9d8ca188217f93368e47817c43d3");
    ("zoo vod", "79cb83378f821b8a991a38592f7a1b3a");
    ("zoo vod n=1", "82075a32379fffc37a6917d1ccf31fcc");
    ("zoo overload", "3bb202cd309f46ac78359ba3453d646b");
    ("zoo overload n=1", "fdec3eded371579f3752607bb2665921");
    ("zoo mix", "226247e8a71e236c0aeee710b49f6847");
    ("zoo mix n=1", "1a6ad6916cf42f88fc0897a229e944ab");
  ]

let () =
  Alcotest.run "digest"
    [
      ( "byte identity",
        List.map
          (fun (name, render) ->
             Alcotest.test_case name `Quick (fun () ->
                 match List.assoc_opt name expected with
                 | None -> Alcotest.failf "no pinned digest for %S" name
                 | Some want ->
                   Alcotest.(check string) name want
                     (Digest.to_hex (Digest.string (render ())))))
          cases );
    ]
