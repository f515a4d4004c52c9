module Rng = Prelude.Rng

type profile = Uniform | Zipf of float | Bursty

let check ~n ~d ~rounds ~load ~alternatives =
  if n < 1 then invalid_arg "Random_workload: n must be >= 1";
  if d < 1 then invalid_arg "Random_workload: d must be >= 1";
  if rounds < 1 then invalid_arg "Random_workload: rounds must be >= 1";
  if not (load >= 0.0) then invalid_arg "Random_workload: negative load";
  if alternatives < 1 || alternatives > n then
    invalid_arg "Random_workload: alternatives out of [1, n]"

(* Bursty: the first 30% of every 20 rounds (rounds 0..5 mod 20) run at
   2.5x the base rate; the rest run at the rate that keeps the mean. *)
let rate_of_round ~profile ~load ~n round =
  let base = load *. float_of_int n in
  match profile with
  | Uniform | Zipf _ -> base
  | Bursty when round mod 20 < 6 -> base *. 2.5
  | Bursty -> base *. ((1.0 -. (0.3 *. 2.5)) /. (1.0 -. 0.3))

(* The one per-round loop: Poisson arrivals, then for each request its
   [alternatives] distinct resources and, after them, its [deadline]
   draw. *)
let poisson_rounds ~rng ~n ~d ~rounds ~load ~alternatives ~profile deadline =
  check ~n ~d ~rounds ~load ~alternatives;
  let pick =
    match profile with
    | Uniform | Bursty -> fun () -> Rng.int rng n
    | Zipf s -> fun () -> Rng.zipf rng ~n ~s
  in
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let lambda = rate_of_round ~profile ~load ~n round in
    for _ = 1 to Rng.poisson rng ~lambda do
      let alternatives = Rng.distinct ~k:alternatives pick in
      let deadline = deadline () in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives ~deadline :: !protos
    done
  done;
  Sched.Instance.build ~n_resources:n ~d (List.rev !protos)

let make ~rng ~n ~d ~rounds ~load ?(alternatives = 2) ?(profile = Uniform) () =
  poisson_rounds ~rng ~n ~d ~rounds ~load ~alternatives ~profile (fun () -> d)

let make_mixed_deadlines ~rng ~n ~d ~rounds ~load ?(alternatives = 2) () =
  poisson_rounds ~rng ~n ~d ~rounds ~load ~alternatives ~profile:Uniform
    (fun () -> Rng.int_in rng 1 d)
