let strategy_names =
  [
    "fix"; "current"; "fix_balance"; "eager"; "balance"; "edf"; "edf_coord";
    "local_fix"; "local_eager"; "greedy_2choice"; "greedy_random";
    "greedy_firstfit";
  ]

let solver_names = [ "kernel"; "rebuild" ]

let solver_of_name = function
  | "kernel" -> Ok Strategies.Global.Kernel
  | "rebuild" -> Ok Strategies.Global.Rebuild
  | other -> Error (Printf.sprintf "unknown solver %S" other)

let factory_of_name ~seed ?metrics ?solver name =
  match name with
  | "fix" -> Ok (Strategies.Global.fix ?solver ?metrics ())
  | "current" -> Ok (Strategies.Global.current ?solver ?metrics ())
  | "fix_balance" -> Ok (Strategies.Global.fix_balance ?solver ?metrics ())
  | "eager" -> Ok (Strategies.Global.eager ?solver ?metrics ())
  | "balance" -> Ok (Strategies.Global.balance ?solver ?metrics ())
  | "edf" -> Ok (Strategies.Edf.independent ())
  | "edf_coord" -> Ok (Strategies.Edf.coordinated ())
  | "local_fix" -> Ok (Localstrat.Local.fix ?metrics ())
  | "local_eager" -> Ok (Localstrat.Local.eager ?metrics ())
  | "greedy_2choice" -> Ok (Strategies.Twochoice.least_loaded ())
  | "greedy_random" ->
    (* split so the strategy's coin stream is independent of a workload
       generated from the same CLI seed *)
    Ok
      (Strategies.Twochoice.random_choice
         ~rng:(Prelude.Rng.split (Prelude.Rng.create ~seed)) ())
  | "greedy_firstfit" -> Ok (Strategies.Twochoice.first_fit ())
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

(* A workload either fixes its own scenario (theorem adversaries) or is
   generated from the CLI's size parameters.  Generators signal a bad
   parameter with [Invalid_argument]; {!instance_of_workload} turns it
   into an [Error]. *)
let workloads =
  let random profile ~n ~d ~rounds ~load ~seed =
    Adversary.Random_workload.make ~rng:(Prelude.Rng.create ~seed) ~n ~d
      ~rounds ~load ~profile ()
  in
  (* theorem adversaries size themselves from [d] and [rounds]; [n] is
     unused but, as for every workload, must be positive *)
  let scenario make ~n ~d ~rounds ~load:_ ~seed:_ =
    if n < 1 then invalid_arg "n must be >= 1";
    (make ~d ~phases:(max 1 (rounds / max 1 d)) : Adversary.Scenario.t)
      .instance
  in
  [
    ("uniform", random Adversary.Random_workload.Uniform);
    ("zipf", random (Adversary.Random_workload.Zipf 1.2));
    ("bursty", random Adversary.Random_workload.Bursty);
    ("thm21", scenario Adversary.Thm21.make);
    ("thm22", scenario (Adversary.Thm22.make ~ell:4));
    ("thm23", scenario Adversary.Thm23.make);
    ("thm24", scenario Adversary.Thm24.make);
    ( "thm25",
      scenario (fun ~d ~phases ->
          Adversary.Thm25.make ~d ~groups:3 ~intervals:phases) );
    ( "thm37",
      scenario (fun ~d ~phases ->
          fst (Adversary.Thm37.make ~d ~intervals:phases)) );
  ]
  @ List.map
      (fun (f : Workload.Zoo.family) -> (f.key, f.generate))
      Workload.Zoo.families

let workload_names = List.map fst workloads

let instance_of_workload ~name ~n ~d ~rounds ~load ~seed =
  match List.assoc_opt name workloads with
  | None -> Error (Printf.sprintf "unknown workload %S" name)
  | Some generate -> (
      try Ok (generate ~n ~d ~rounds ~load ~seed)
      with Invalid_argument m -> Error m)
