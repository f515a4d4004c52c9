(* The integration test: every reproduction experiment of DESIGN.md §3
   runs at quick parameters and every one of its named checks must
   pass.  This is the test-suite mirror of `dune exec bench/main.exe`. *)

let experiment_case (id, f) =
  Alcotest.test_case id `Slow (fun () ->
      let e = f ~ctx:(Report.Jobs.local ()) ~quick:true in
      List.iter
        (fun (name, ok) ->
           Alcotest.check Alcotest.bool
             (Printf.sprintf "[%s] %s" e.Report.Experiments.id name)
             true ok)
        e.Report.Experiments.checks)

let test_harness_asymptotic_exact () =
  (* the doubling-difference estimator must cancel additive terms:
     thm 2.1 at d=3 gives exactly 5/3 per phase *)
  let measured =
    Report.Harness.asymptotic_ratio_exact
      ~make:(fun phases -> Adversary.Thm21.make ~d:3 ~phases)
      ~factory:(fun sc -> Strategies.Global.fix ~bias:sc.bias ())
      ~k:2
  in
  Alcotest.check
    (Alcotest.testable Prelude.Rat.pp Prelude.Rat.equal)
    "5/3" (Prelude.Rat.make 5 3) measured

let test_harness_opt_hint_mismatch_detected () =
  let sc = Adversary.Thm21.make ~d:2 ~phases:1 in
  let broken = { sc with Adversary.Scenario.opt_hint = Some 1 } in
  match
    Report.Harness.run_scenario broken (Strategies.Global.fix ())
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on wrong optimum hint"

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_render_contains_pass_lines () =
  let e =
    Report.Experiments.t1_fix_lb ~ctx:(Report.Jobs.local ()) ~quick:true
  in
  let s = Report.Experiments.render e in
  Alcotest.check Alcotest.bool "has PASS marker" true
    (contains ~needle:"[PASS]" s)

(* Regression: greedy_random's coin rng was hardcoded to seed 0, so
   --seed changed the workload but never the strategy's coin flips.  Two
   seeds on the SAME instance must now produce different schedules. *)
let test_registry_seed_reaches_greedy_random () =
  let inst =
    match
      Report.Registry.instance_of_workload ~name:"uniform" ~n:8 ~d:4
        ~rounds:80 ~load:1.3 ~seed:42
    with
    | Ok i -> i
    | Error m -> Alcotest.fail m
  in
  let served_at seed =
    match Report.Registry.factory_of_name ~seed "greedy_random" with
    | Error m -> Alcotest.fail m
    | Ok factory ->
      (Sched.Engine.run inst factory).Sched.Outcome.served_at
  in
  Alcotest.check Alcotest.bool "same seed reproduces" true
    (served_at 1 = served_at 1);
  Alcotest.check Alcotest.bool "different seeds differ" false
    (served_at 1 = served_at 2)

let test_registry_knows_every_strategy () =
  List.iter
    (fun name ->
       match Report.Registry.factory_of_name ~seed:0 name with
       | Ok _ -> ()
       | Error m -> Alcotest.fail m)
    Report.Registry.strategy_names;
  match Report.Registry.factory_of_name ~seed:0 "no_such_strategy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown strategy accepted"

(* Regression: [instance_of_workload] returns a result, yet uniform
   with n = 0 and thm21/thm37 with d = 0 leaked [Invalid_argument].
   Every workload must answer a bad size with [Error], and every name
   it lists must also generate from sane sizes. *)
let test_registry_workloads_never_raise () =
  let generate name ~n ~d =
    match
      Report.Registry.instance_of_workload ~name ~n ~d ~rounds:12 ~load:1.0
        ~seed:1
    with
    | result -> result
    | exception e ->
      Alcotest.failf "%s n=%d d=%d raised %s" name n d
        (Printexc.to_string e)
  in
  List.iter
    (fun name ->
       (match generate name ~n:0 ~d:4 with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s accepted n = 0" name);
       match generate name ~n:4 ~d:0 with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%s accepted d = 0" name)
    Report.Registry.workload_names;
  (* d = 6 satisfies every theorem adversary's divisibility constraint
     except thm25's d = 3x - 1 *)
  List.iter
    (fun name ->
       let d = if name = "thm25" then 5 else 6 in
       match generate name ~n:4 ~d with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "%s: %s" name m)
    Report.Registry.workload_names;
  match generate "no_such_workload" ~n:4 ~d:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload accepted"

(* Regression: the bench's hand-rolled parser returned None for a value
   flag sitting in final position, silently running the full suite when
   the user typed `--only` and forgot the id. *)
let test_flags_trailing_value_is_error () =
  let argv suffix = Array.of_list ("main.exe" :: suffix) in
  (match Report.Flags.value_flag (argv [ "--only"; "T1" ]) "--only" with
   | Ok (Some "T1") -> ()
   | _ -> Alcotest.fail "value not parsed");
  (match Report.Flags.value_flag (argv [ "--quick" ]) "--only" with
   | Ok None -> ()
   | _ -> Alcotest.fail "absent flag must be Ok None");
  (match Report.Flags.value_flag (argv [ "--quick"; "--only" ]) "--only" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing value flag must be an error");
  (* argv.(0) is the executable, never a flag match *)
  match Report.Flags.value_flag (Array.of_list [ "--only" ]) "--only" with
  | Ok None -> ()
  | _ -> Alcotest.fail "argv.(0) must not match"

let () =
  Alcotest.run "report"
    ~and_exit:true
    [
      ( "harness",
        [
          Alcotest.test_case "asymptotic exact" `Quick
            test_harness_asymptotic_exact;
          Alcotest.test_case "hint mismatch detected" `Quick
            test_harness_opt_hint_mismatch_detected;
          Alcotest.test_case "render" `Quick test_render_contains_pass_lines;
        ] );
      ( "registry",
        [
          Alcotest.test_case "seed reaches greedy_random" `Quick
            test_registry_seed_reaches_greedy_random;
          Alcotest.test_case "every strategy constructs" `Quick
            test_registry_knows_every_strategy;
          Alcotest.test_case "workloads return Error, never raise" `Quick
            test_registry_workloads_never_raise;
        ] );
      ( "flags",
        [
          Alcotest.test_case "trailing value flag" `Quick
            test_flags_trailing_value_is_error;
        ] );
      ("experiments", List.map experiment_case Report.Experiments.catalog);
    ]
