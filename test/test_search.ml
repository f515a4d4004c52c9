(* Tests for the worst-case search layer: exhaustive game-tree tier
   (Table-1 rediscovery, budget monotonicity, canonicalization),
   certificates (accept emitted / reject perturbed) and the guided
   attacker doubling as the kernel-vs-rebuild differential fuzzer. *)

module Move = Search.Move
module Game = Search.Game
module Cert = Search.Certificate
module Exh = Search.Exhaustive
module Att = Search.Attacker
module Rat = Prelude.Rat

let check = Alcotest.check

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* move vocabulary *)

let test_tag_strings () =
  List.iter
    (fun t ->
       match Move.tag_of_string (Move.tag_to_string t) with
       | Ok t' ->
         check Alcotest.bool (Move.tag_to_string t) true (t = t')
       | Error e -> Alcotest.failf "tag round-trip: %s" e)
    [ Move.Neutral; Move.Late; Move.Early; Move.Prefer 0; Move.Prefer 3 ]

let test_multisets_prefix_stable () =
  (* the property the budget-monotonicity of the search rests on *)
  let ts =
    Move.types ~n:2 ~k:2 ~deadlines:[ 1 ] ~tags:[ Move.Neutral; Move.Late ]
  in
  let m2 = Move.multisets ts ~max:2 and m3 = Move.multisets ts ~max:3 in
  check Alcotest.bool "multisets ~max:2 is a prefix of ~max:3" true
    (List.length m3 > List.length m2
     && List.for_all2 (fun a b -> a = b) m2
          (List.filteri (fun i _ -> i < List.length m2) m3))

(* ------------------------------------------------------------------ *)
(* exhaustive tier: the acceptance criterion of the whole layer *)

let run_fix ~d =
  let strat =
    match Game.strategy_of_name "fix" with
    | Ok s -> s
    | Error e -> Alcotest.failf "strategy_of_name: %s" e
  in
  Exh.run ~strategy:strat (Exh.config ~n:2 ~d ())

let test_fix_rediscovers_table1 () =
  (* d = 1: every strategy is per-round optimal, the true value is 1 *)
  let r1 = run_fix ~d:1 in
  (match r1.Exh.best with
   | Some f -> check rat "d=1 value" (Rat.make 1 1) f.Exh.ratio
   | None -> Alcotest.fail "d=1: empty tree");
  check Alcotest.int "d=1: no solver disagreements" 0
    (List.length r1.Exh.disagreements);
  (* d = 2: the search must rediscover the Table-1 bound 2 - 1/d *)
  let r2 = run_fix ~d:2 in
  (match r2.Exh.best with
   | Some f ->
     check rat "d=2 value is fix_lb" (Analysis.Bounds.fix_lb ~d:2)
       f.Exh.ratio;
     check Alcotest.int "d=2 witness opt" 3 f.Exh.opt;
     check Alcotest.int "d=2 witness alg" 2 f.Exh.alg
   | None -> Alcotest.fail "d=2: empty tree");
  check Alcotest.int "d=2: no solver disagreements" 0
    (List.length r2.Exh.disagreements);
  (* and its certificate replays *)
  match Exh.certificate r2 with
  | None -> Alcotest.fail "d=2: no certificate"
  | Some c ->
    (match Cert.check c with
     | Ok () -> ()
     | Error e -> Alcotest.failf "certificate rejected: %s" e)

let test_verdicts () =
  let lb = Analysis.Bounds.fix_lb ~d:2 in
  check Alcotest.bool "exact rediscovery" true
    (String.length (Exh.verdict ~d:2 ~strategy_name:"A_fix" lb) > 0
     && Exh.verdict ~d:2 ~strategy_name:"A_fix" lb
        = Printf.sprintf "rediscovered Table-1 lower bound exactly (lb %s)"
            (Rat.to_string lb));
  (* beyond the proven upper bound is the one impossible outcome *)
  let v = Exh.verdict ~d:2 ~strategy_name:"A_fix" (Rat.make 5 1) in
  check Alcotest.bool "above ub flagged" true
    (String.length v >= 7 && String.sub v 0 7 = "EXCEEDS")

let test_config_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  let strategy =
    match Game.strategy_of_name "fix" with
    | Ok s -> s
    | Error e -> Alcotest.failf "strategy_of_name: %s" e
  in
  let run cfg = ignore (Exh.run ~strategy cfg) in
  expect_invalid "n=5" (fun () -> run (Exh.config ~n:5 ~d:2 ()));
  expect_invalid "d=4" (fun () -> run (Exh.config ~n:2 ~d:4 ()));
  expect_invalid "budget=7" (fun () ->
      run (Exh.config ~budget:7 ~n:2 ~d:2 ()));
  expect_invalid "k=3" (fun () -> run (Exh.config ~k:3 ~n:3 ~d:2 ()));
  expect_invalid "deadline beyond d" (fun () ->
      run (Exh.config ~deadlines:[ 3 ] ~n:2 ~d:2 ()));
  expect_invalid "Prefer out of range" (fun () ->
      run (Exh.config ~tags:[ Move.Prefer 2 ] ~n:2 ~d:2 ()))

(* ------------------------------------------------------------------ *)
(* qcheck: search value is monotone in the request budget *)

let small_cfg ~d ~budget =
  Exh.config ~budget ~per_round:2 ~tags:[ Move.Neutral; Move.Late ] ~n:2 ~d
    ()

let prop_budget_monotone =
  qcheck ~count:12 "search value monotone in budget"
    QCheck.(pair (int_range 1 2) (int_range 1 3))
    (fun (d, budget) ->
       let strategy =
         match Game.strategy_of_name "fix" with
         | Ok s -> s
         | Error _ -> assert false
       in
       let value b =
         match (Exh.run ~strategy (small_cfg ~d ~budget:b)).Exh.best with
         | Some f -> f.Exh.ratio
         | None -> Rat.make 0 1
       in
       Rat.compare (value budget) (value (budget + 1)) <= 0)

(* ------------------------------------------------------------------ *)
(* qcheck: canonical key is invariant under resource relabeling *)

let perms3 =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |];
     [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

let tag_gen n =
  QCheck.Gen.(
    frequency
      [ (3, return Move.Neutral); (1, return Move.Late);
        (1, return Move.Early);
        (2, map (fun r -> Move.Prefer r) (int_range 0 (n - 1))) ])

let rtype_gen n =
  QCheck.Gen.(
    int_range 1 2 >>= fun size ->
    list_size (return size) (int_range 0 (n - 1)) >>= fun alts ->
    int_range 1 2 >>= fun deadline ->
    tag_gen n >>= fun tag ->
    return (Move.rtype ~alts ~deadline ~tag))

let prefix_gen n =
  QCheck.Gen.(
    list_size (int_range 0 2) (list_size (int_range 0 2) (rtype_gen n))
    >>= fun rows ->
    rtype_gen n >>= fun last -> return (rows @ [ [ last ] ]))

let print_prefix p =
  String.concat "|"
    (List.map (fun row -> String.concat ";" (List.map Move.encode row)) p)

let prop_canonical_relabel =
  qcheck ~count:100 "canonical key invariant under relabeling"
    (QCheck.make
       QCheck.Gen.(pair (prefix_gen 3) (int_range 0 5))
       ~print:(fun (p, i) -> Printf.sprintf "%s perm#%d" (print_prefix p) i))
    (fun (prefix, i) ->
       let perm = perms3.(i) in
       let relabeled =
         List.map (List.map (Move.relabel ~perm)) prefix
       in
       String.equal
         (Game.canonical_key ~n:3 prefix)
         (Game.canonical_key ~n:3 relabeled))

(* ------------------------------------------------------------------ *)
(* certificate header and tag lines: the accepted language, pinned *)

(* Each header line heads a one-request body, and each tag line sits
   between a valid header and that body; [true] means the certificate
   parses. *)
let test_certificate_line_edges () =
  let body = "instance rsp/1 n=2 d=2 requests=1\nreq 0 0,1 2\nend\n" in
  let parses text = Result.is_ok (Cert.parse text) in
  let hdr = "search-cert rsp/1 strategy=A_fix opt=1 alg=1" in
  List.iter
    (fun (line, ok) ->
       check Alcotest.bool ("header " ^ line) ok (parses (line ^ "\n" ^ body)))
    [
      (hdr ^ " ratio=1", true);
      (hdr, true);
      ("search-cert rsp/1 alg=1 opt=1 strategy=A_fix", true);
      (hdr ^ " opt=2", true);
      ("search-cert rsp/1 strategy=A_fix opt=2 alg=4 ratio=1/2", true);
      ("search-cert rsp/1 strategy=A_fix opt=1 alg=1 ratio=2", false);
      ("search-cert rsp/2 strategy=A_fix opt=1 alg=1", false);
      ("search-cert", false);
      ("search-cert rsp/1", false);
      ("search-certX rsp/1 strategy=A_fix opt=1 alg=1", false);
      ("search-cert rsp/1 strategy=A_fix opt=1 alg=0", false);
      ("search-cert rsp/1 strategy=A_fix opt=-1 alg=1", true);
      ("search-cert rsp/1 strategy=A_fix opt=0x1 alg=1", true);
      ("search-cert rsp/1 strategy=A_fix opt=+1 alg=1_0", true);
      ("search-cert rsp/1 strategy=A_fix opt=007 alg=1", true);
      ("search-cert rsp/1 strategy=A_fix opt=1 alg=4611686018427387903", true);
      ("search-cert rsp/1 strategy=A_fix opt=1 alg=4611686018427387904", false);
      ("search-cert rsp/1 strategy=A_fix opt= alg=1", false);
      ("search-cert rsp/1 strategy=A_fix opt=1.0 alg=1", false);
      ("search-cert rsp/1 strategy=A_fix opt=1 alg=1 seed=3", false);
      ("search-cert rsp/1 strategy=A_fix opt alg=1", false);
      ("search-cert rsp/1 strategy=A_fix  opt=1 alg=1", false);
      ("search-cert\trsp/1 strategy=A_fix opt=1 alg=1", false);
      ("search-cert rsp/1 =1 strategy=A_fix opt=1 alg=1", false);
      ("search-cert rsp/1 strategy= opt=1 alg=1", true);
      ("search-cert rsp/1 strategy=a=b opt=1 alg=1", true);
      ("  " ^ hdr ^ "  ", true);
    ];
  List.iter
    (fun (line, ok) ->
       check Alcotest.bool ("tag " ^ line) ok
         (parses (hdr ^ "\n" ^ line ^ "\n" ^ body)))
    [
      ("tag 0 late", true);
      ("tag 0 prefer:1", true);
      ("tag 0x0 early", true);
      ("tag +0 late", true);
      ("tag 00 late", true);
      ("tag 0 late  ", true);
      ("tag 1 late", false);
      ("tag -1 late", false);
      ("tag  0 late", false);
      ("tag 0  late", false);
      ("tag 0 late extra", false);
      ("tag 0", false);
      ("tag x late", false);
      ("tag 0 bogus", false);
      ("tag 0 prefer:-1", false);
      ("tag 99999999999999999999 late", false);
    ]

(* ------------------------------------------------------------------ *)
(* qcheck: certificates accept what was emitted, reject perturbations *)

let prop_certificate =
  qcheck ~count:40 "certificate accepts emitted, rejects perturbed"
    (QCheck.make (prefix_gen 2) ~print:print_prefix)
    (fun prefix ->
       let strategy =
         match Game.strategy_of_name "fix" with
         | Ok s -> s
         | Error _ -> assert false
       in
       let e = Game.evaluate strategy ~n:2 ~d:2 prefix in
       if e.Game.alg = 0 then QCheck.assume_fail ()
       else begin
         let c =
           Cert.of_prefix ~strategy ~n:2 ~d:2 ~opt:e.Game.opt
             ~alg:e.Game.alg prefix
         in
         (* the emitted certificate replays cleanly *)
         (match Cert.check c with
          | Ok () -> ()
          | Error err -> QCheck.Test.fail_reportf "rejected: %s" err);
         (* render/parse is the identity *)
         (match Cert.parse (Cert.render c) with
          | Ok c' ->
            if not (String.equal (Cert.render c) (Cert.render c')) then
              QCheck.Test.fail_reportf "render/parse drift"
          | Error err -> QCheck.Test.fail_reportf "parse: %s" err);
         (* perturbing either claim must be caught by the replay *)
         let perturbed_opt =
           Cert.v ~strategy:c.Cert.strategy ~opt:(c.Cert.opt + 1)
             ~alg:c.Cert.alg ~tags:c.Cert.tags c.Cert.instance
         in
         let perturbed_alg =
           Cert.v ~strategy:c.Cert.strategy ~opt:c.Cert.opt
             ~alg:(c.Cert.alg + 1) ~tags:c.Cert.tags c.Cert.instance
         in
         (match Cert.check perturbed_opt with
          | Ok () -> QCheck.Test.fail_reportf "perturbed opt accepted"
          | Error _ -> ());
         (match Cert.check perturbed_alg with
          | Ok () -> QCheck.Test.fail_reportf "perturbed alg accepted"
          | Error _ -> ());
         true
       end)

(* ------------------------------------------------------------------ *)
(* golden snapshot: the exhaustive quick table *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_path () =
  (* cwd is test/ under `dune runtest` (the dep is copied next to the
     executable) but the project root under a bare `dune exec` *)
  List.find_opt Sys.file_exists
    [ "golden_search_quick.txt";
      Filename.concat "test" "golden_search_quick.txt" ]

let test_golden_search_quick () =
  let expected =
    match golden_path () with
    | Some p -> read_file p
    | None -> Alcotest.fail "golden_search_quick.txt not found"
  in
  let got = Exh.golden_table ~n:2 ~ds:[ 1; 2 ] () in
  if got <> expected then
    Alcotest.failf
      "Exhaustive search table drifted from test/golden_search_quick.txt.\n\
       If the change is intended, regenerate with:\n\
      \  dune exec bin/reqsched.exe -- search --strategy all --budget \
       exhaustive --golden > test/golden_search_quick.txt\n\
       --- expected ---\n%s--- got ---\n%s"
      expected got

(* ------------------------------------------------------------------ *)
(* fuzz-differential tier: the attacker as a kernel/rebuild fuzzer *)

let save_repro cert =
  let path = Filename.temp_file "search-disagreement-" ".cert" in
  Cert.save ~path cert;
  path

let test_fuzz_differential () =
  (* >= 200 seeded instances per strategy, every one a kernel-vs-
     rebuild agreement check; a disagreement leaves an rsp/1 repro *)
  List.iter
    (fun key ->
       let strategy =
         match Game.strategy_of_name key with
         | Ok s -> s
         | Error e -> Alcotest.failf "strategy_of_name: %s" e
       in
       let cfg = Att.config ~seed:7 ~restarts:4 ~evals:25 ~n:4 ~d:3 () in
       let r = Att.run ~strategy cfg in
       check Alcotest.bool
         (Printf.sprintf "%s: >= 200 instances (got %d)" key r.Att.instances)
         true (r.Att.instances >= 200);
       (match r.Att.disagreements with
        | [] -> ()
        | c :: _ ->
          Alcotest.failf
            "%s: kernel and rebuild disagreed on %d instance(s); repro \
             saved to %s"
            key
            (List.length r.Att.disagreements)
            (save_repro c));
       (* the best construction's certificate is independently valid *)
       match Cert.check r.Att.certificate with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: attacker certificate: %s" key e)
    [ "fix"; "balance" ]

let test_attacker_deterministic () =
  let strategy =
    match Game.strategy_of_name "eager" with
    | Ok s -> s
    | Error e -> Alcotest.failf "strategy_of_name: %s" e
  in
  let cfg = Att.config ~seed:3 ~restarts:2 ~evals:15 ~n:3 ~d:2 () in
  let a = Att.run ~strategy cfg and b = Att.run ~strategy cfg in
  check rat "same best rate" a.Att.best_rate b.Att.best_rate;
  check Alcotest.string "same certificate"
    (Cert.render a.Att.certificate)
    (Cert.render b.Att.certificate)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "search"
    [
      ( "moves",
        [
          Alcotest.test_case "tag strings round-trip" `Quick test_tag_strings;
          Alcotest.test_case "multisets prefix-stable" `Quick
            test_multisets_prefix_stable;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "fix rediscovers Table 1" `Quick
            test_fix_rediscovers_table1;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          prop_budget_monotone;
        ] );
      ( "canonicalization", [ prop_canonical_relabel ] );
      ( "certificates",
        [
          prop_certificate;
          Alcotest.test_case "header and tag line edges" `Quick
            test_certificate_line_edges;
        ] );
      ( "golden",
        [ Alcotest.test_case "quick table snapshot" `Slow
            test_golden_search_quick ] );
      ( "fuzz differential",
        [
          Alcotest.test_case "200+ instances, zero disagreements" `Slow
            test_fuzz_differential;
          Alcotest.test_case "attacker deterministic" `Quick
            test_attacker_deterministic;
        ] );
    ]
