(* Tests for the data-server traffic in the workload library: replica
   placement policies and trace generators. *)

module Placement = Workload.Placement
module Trace = Workload.Trace
module Rng = Prelude.Rng
module Instance = Sched.Instance
module Request = Sched.Request

let check = Alcotest.check
let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Placement *)

let distinct_copies p =
  let ok = ref true in
  for item = 0 to p.Placement.items - 1 do
    let ds = Placement.disks_of p item in
    if List.length (List.sort_uniq compare ds) <> List.length ds then
      ok := false;
    List.iter
      (fun d -> if d < 0 || d >= p.Placement.disks then ok := false)
      ds
  done;
  !ok

let test_placement_random () =
  let rng = Rng.create ~seed:3 in
  let p = Placement.random ~rng ~disks:6 ~items:50 ~copies:2 in
  check Alcotest.bool "copies distinct and in range" true (distinct_copies p);
  check Alcotest.int "two per item" 2
    (List.length (Placement.disks_of p 0))

let test_placement_partner () =
  let p = Placement.partner ~disks:5 ~items:12 ~copies:2 in
  check Alcotest.bool "distinct" true (distinct_copies p);
  check Alcotest.(list int) "item 0" [ 0; 1 ] (Placement.disks_of p 0);
  check Alcotest.(list int) "item 4 wraps" [ 4; 0 ] (Placement.disks_of p 4)

let test_placement_striped () =
  let p = Placement.striped ~disks:8 ~items:20 ~copies:2 in
  check Alcotest.bool "distinct" true (distinct_copies p);
  check Alcotest.(list int) "item 0 mirrored across" [ 0; 4 ]
    (Placement.disks_of p 0)

let test_placement_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Placement.partner ~disks:2 ~items:5 ~copies:3);
  expect_invalid (fun () -> Placement.partner ~disks:0 ~items:5 ~copies:1);
  let p = Placement.partner ~disks:3 ~items:4 ~copies:2 in
  expect_invalid (fun () -> Placement.disks_of p 99)

let test_placement_load_spread () =
  (* uniform popularity on the partner layout is perfectly even *)
  let p = Placement.partner ~disks:4 ~items:8 ~copies:2 in
  check (Alcotest.float 1e-9) "uniform popularity even" 1.0
    (Placement.load_spread p ~popularity:(fun _ -> 1.0));
  (* all popularity on one item: its two disks carry everything *)
  let spread =
    Placement.load_spread p ~popularity:(fun i -> if i = 0 then 1.0 else 0.0)
  in
  check (Alcotest.float 1e-9) "hot item concentrates" 2.0 spread

let prop_striped_distinct =
  qtest "striped placement keeps copies distinct for any shape"
    QCheck.(triple (int_range 2 10) (int_range 1 40) (int_range 2 4))
    (fun (disks, items, copies) ->
       QCheck.assume (copies <= disks);
       distinct_copies (Placement.striped ~disks ~items ~copies))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_point_requests_shape () =
  let rng = Rng.create ~seed:7 in
  let p = Placement.partner ~disks:5 ~items:20 ~copies:2 in
  let inst =
    Trace.point_requests ~rng ~placement:p ~rounds:50 ~load:1.0 ~d:3 ()
  in
  check Alcotest.int "resources = disks" 5 inst.Instance.n_resources;
  check Alcotest.bool "nonempty" true (Instance.n_requests inst > 50);
  Array.iter
    (fun (r : Request.t) ->
       check Alcotest.int "two alternatives" 2
         (Array.length r.Request.alternatives);
       (* alternatives must be a placement pair *)
       let item_pairs =
         List.init 20 (fun i -> List.sort compare (Placement.disks_of p i))
       in
       check Alcotest.bool "alternatives from catalogue" true
         (List.mem
            (List.sort compare (Array.to_list r.Request.alternatives))
            item_pairs))
    inst.Instance.requests

let test_sessions_issue_per_round () =
  let rng = Rng.create ~seed:8 in
  let p = Placement.partner ~disks:4 ~items:10 ~copies:2 in
  let inst, stats =
    Trace.sessions ~rng ~placement:p ~rounds:60 ~arrivals_per_round:0.5
      ~mean_length:5 ~d:2 ()
  in
  check Alcotest.bool "some sessions" true (stats.Trace.started > 5);
  check Alcotest.bool "mean length near request" true
    (stats.Trace.mean_length >= 1.0);
  (* a session's requests are one per round: the busiest single pair of
     (arrival, alternatives) cannot exceed the session count by much --
     weak sanity only; the strong guarantee is arrival ordering, which
     Instance.build enforces *)
  check Alcotest.bool "nonempty" true (Instance.n_requests inst > 0)

let test_sessions_deterministic () =
  let make () =
    let rng = Rng.create ~seed:9 in
    let p = Placement.partner ~disks:4 ~items:10 ~copies:2 in
    let inst, stats =
      Trace.sessions ~rng ~placement:p ~rounds:40 ~arrivals_per_round:1.0
        ~mean_length:4 ~d:3 ()
    in
    (Instance.n_requests inst, stats.Trace.started)
  in
  check Alcotest.(pair int int) "deterministic" (make ()) (make ())

let test_sessions_hot_item_correlation () =
  (* extreme zipf: almost all sessions hit item 0, so nearly every
     request carries item 0's pair -- exactly the correlated traffic
     the adversarial model warns about *)
  let rng = Rng.create ~seed:10 in
  let p = Placement.partner ~disks:6 ~items:30 ~copies:2 in
  let inst, _ =
    Trace.sessions ~rng ~placement:p ~rounds:80 ~arrivals_per_round:2.0
      ~mean_length:6 ~d:3 ~zipf:3.0 ()
  in
  let hot_pair = List.sort compare (Placement.disks_of p 0) in
  let hits =
    Array.fold_left
      (fun acc (r : Request.t) ->
         if List.sort compare (Array.to_list r.Request.alternatives) = hot_pair
         then acc + 1
         else acc)
      0 inst.Instance.requests
  in
  check Alcotest.bool "hot pair dominates" true
    (2 * hits > Instance.n_requests inst)

(* Replay the generator's RNG draws (poisson newcomers, then zipf item
   and geometric length per session — the documented draw order) and
   check the published session_stats and the instance size against the
   independent count, across seeds. *)
let test_sessions_stats_agree () =
  List.iter
    (fun seed ->
       let rounds = 70 and arrivals_per_round = 1.3 and mean_length = 6 in
       let disks = 5 and items = 17 in
       let gen () = Placement.partner ~disks ~items ~copies:2 in
       let inst, stats =
         Trace.sessions
           ~rng:(Rng.create ~seed)
           ~placement:(gen ()) ~rounds ~arrivals_per_round ~mean_length ~d:3
           ()
       in
       let rng = Rng.create ~seed in
       let started = ref 0 and total_length = ref 0 and events = ref 0 in
       for round = 0 to rounds - 1 do
         let newcomers = Rng.poisson rng ~lambda:arrivals_per_round in
         for _ = 1 to newcomers do
           incr started;
           ignore (Rng.zipf rng ~n:items ~s:1.0);
           let length =
             1 + Rng.geometric rng ~p:(1.0 /. float_of_int mean_length)
           in
           total_length := !total_length + length;
           events := !events + min length (rounds - round)
         done
       done;
       check Alcotest.int
         (Printf.sprintf "started (seed %d)" seed)
         !started stats.Trace.started;
       check
         (Alcotest.float 1e-9)
         (Printf.sprintf "mean_length (seed %d)" seed)
         (if !started = 0 then 0.0
          else float_of_int !total_length /. float_of_int !started)
         stats.Trace.mean_length;
       (* every untruncated per-round event becomes exactly one request *)
       check Alcotest.int
         (Printf.sprintf "request count (seed %d)" seed)
         !events (Instance.n_requests inst))
    [ 1; 2; 3; 17; 42; 1999 ]

let test_trace_validation () =
  let rng = Rng.create ~seed:0 in
  let p = Placement.partner ~disks:2 ~items:2 ~copies:1 in
  (match Trace.point_requests ~rng ~placement:p ~rounds:0 ~load:1.0 ~d:1 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "rounds=0 accepted");
  match
    Trace.sessions ~rng ~placement:p ~rounds:5 ~arrivals_per_round:1.0
      ~mean_length:0 ~d:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mean_length=0 accepted"

let () =
  Alcotest.run "workload"
    [
      ( "placement",
        [
          Alcotest.test_case "random" `Quick test_placement_random;
          Alcotest.test_case "partner" `Quick test_placement_partner;
          Alcotest.test_case "striped" `Quick test_placement_striped;
          Alcotest.test_case "validation" `Quick test_placement_validation;
          Alcotest.test_case "load spread" `Quick test_placement_load_spread;
          prop_striped_distinct;
        ] );
      ( "trace",
        [
          Alcotest.test_case "point requests" `Quick test_point_requests_shape;
          Alcotest.test_case "sessions" `Quick test_sessions_issue_per_round;
          Alcotest.test_case "deterministic" `Quick test_sessions_deterministic;
          Alcotest.test_case "hot item correlation" `Quick
            test_sessions_hot_item_correlation;
          Alcotest.test_case "stats agree with direct counts" `Quick
            test_sessions_stats_agree;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
    ]
