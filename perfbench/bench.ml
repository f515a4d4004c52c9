(* reqsched benchmark program.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of a checkout after building bin/reqsched.exe
   (perfbench/run.py does both).

   --trace 0: end-to-end.  Fresh [reqsched serve] (or [reqsched cluster
   --listen]) processes are driven over a unix socket by the lean
   generator, one repetition after another; the repetition count is
   fixed by the workload and S (Workload.reps).
   --trace 1: per-layer.  Three untraced end-to-end repetitions for the
   reference round time, then the in-process replays of Traced until S
   seconds are used.

   Every output check runs in both modes; the last stdout line is the
   JSON result, and a failed check exits 1. *)

let now = Gen.now

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ value samples = { name; unit_; value; samples }

(* ------------------------------------------------------------------ *)
(* checks *)

let checks : (string * bool * string) list ref = ref []

let check name ok detail =
  checks := (name, ok, detail) :: !checks;
  Printf.printf "check %-34s %s%s\n%!" name (if ok then "ok" else "FAIL")
    (if detail = "" then "" else "  (" ^ detail ^ ")")

let all_ok () = List.for_all (fun (_, ok, _) -> ok) !checks

(* ------------------------------------------------------------------ *)
(* references, built outside every timed window *)

type reference = { label : string; served : int; digest : int }

(* In-process runs of the same instance.  [Engine.run]'s time is the
   single-threaded baseline the served throughput compares against. *)
let references (inp : Workload.inputs) =
  let run label f =
    let t0 = now () in
    let o = Sched.Engine.run ~metrics:(Obs.Metrics.create ()) inp.inst f in
    let s = now () -. t0 in
    Printf.printf "reference %s: served %d in %.3f s single-threaded (%.0f req/s)\n"
      label o.Sched.Outcome.served s
      (float_of_int (Workload.n_requests inp) /. s);
    { label; served = o.Sched.Outcome.served; digest = Workload.outcome_digest o }
  in
  match inp.spec.server with
  | Workload.Serve _ -> []
  | Workload.Cluster _ ->
    let session = run "Engine.run" (Workload.factory inp.spec) in
    let local =
      run "Localstrat.Local.fix"
        (Localstrat.Local.fix ~metrics:(Obs.Metrics.create ()) ())
    in
    [ session; local ]

let lockstep (inp : Workload.inputs) =
  match inp.spec.tick with Workload.Lockstep -> true | Paced _ -> false

let rep_failed (r : Gen.rep) =
  r.rejected + (r.submitted - r.terminals) + r.dups + r.errors

let check_reps (inp : Workload.inputs) refs (reps : Gen.rep list) =
  let n = List.length reps in
  let all p = List.for_all p reps in
  check "one terminal per tag"
    (all (fun r -> r.terminals = r.submitted && r.dups = 0))
    (Printf.sprintf "%d repetitions" n);
  check "no protocol errors or rejects"
    (all (fun r -> r.errors = 0 && r.rejected = 0)) "";
  check "server drained and exited 0" (all (fun r -> r.clean_exit)) "";
  check "served <= OPT"
    (all (fun r -> r.scheduled <= inp.opt))
    (Printf.sprintf "OPT=%d" inp.opt);
  let digests = List.map (fun (r : Gen.rep) -> r.digest) reps in
  if lockstep inp then
    check "lock-step digests identical"
      (List.for_all (( = ) (List.hd digests)) digests)
      (Printf.sprintf "%d repetitions" n);
  List.iter
    (fun rf ->
       check
         (Printf.sprintf "decisions = %s" rf.label)
         (all (fun r -> r.scheduled = rf.served)
          && List.for_all (( = ) rf.digest) digests)
         (Printf.sprintf "served=%d" rf.served))
    refs

(* ------------------------------------------------------------------ *)
(* statistics *)

let quantile a q = List.hd (Gen.quantiles a [ q ])
let median a = quantile a 0.5
let concat_map f reps = Array.concat (List.map f reps)
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Per-repetition figures.  A repetition is one fresh server replaying
   the whole instance. *)
let throughput (r : Gen.rep) = float_of_int r.terminals /. r.wall_s
let cpu_us_per_req (r : Gen.rep) = r.cpu_ns /. 1000.0 /. float_of_int r.submitted

let p50_p90 a =
  match Gen.quantiles a [ 0.5; 0.9 ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* Every figure is the median over the repetitions of the figure each
   repetition reports; a round or decision quantile is the median of the
   repetitions' own quantiles.  The median keeps a burst of host
   interference that spoils a few repetitions out of the result (see
   README), while a regression that slows half of them moves it. *)
let e2e_metrics (inp : Workload.inputs) (reps : Gen.rep list) =
  let per f = Array.of_list (List.map f reps) in
  let n = List.length reps in
  let rq = per (fun r -> p50_p90 r.Gen.round_ms) in
  let dq = per (fun r -> p50_p90 r.Gen.decision_ms) in
  let rounds = isum (fun r -> Array.length r.Gen.round_ms) reps in
  let decisions = isum (fun r -> Array.length r.Gen.decision_ms) reps in
  [
    m "setup_s" "s" (median (per (fun r -> r.setup_s))) n;
    m "throughput_rps" "1/s" (median (per throughput)) n;
    m "round_p50_ms" "ms" (median (Array.map fst rq)) rounds;
    m "round_p90_ms" "ms" (median (Array.map snd rq)) rounds;
    m "decision_p50_ms" "ms" (median (Array.map fst dq)) decisions;
    m "decision_p90_ms" "ms" (median (Array.map snd dq)) decisions;
    m "served_over_opt" "ratio"
      (median
         (per (fun r -> float_of_int r.scheduled /. float_of_int inp.opt)))
      n;
    m "cpu_us_per_req" "us" (median (per cpu_us_per_req)) n;
    m "peak_rss_mb" "MB"
      (median (per (fun r -> float_of_int r.rss_kb /. 1024.0))) n;
  ]

(* ------------------------------------------------------------------ *)
(* the two modes *)

let new_state (inp : Workload.inputs) =
  Gen.make_tags ~count:(Workload.n_requests inp) ~rounds:inp.horizon

(* Lock-step only: mean round time over the last tenth of the arrival
   rounds divided by the second tenth (the first is a fresh server's
   warm-up).  Engine.Live keeps every request it has seen, so a ratio
   above 1 is that retained state showing up in round time. *)
let growth (inp : Workload.inputs) (r : Gen.rep) =
  let k = max 1 (inp.spec.rounds / 10) in
  let mean lo =
    let s = ref 0.0 in
    for i = lo to lo + k - 1 do s := !s +. r.round_ms.(i) done;
    !s /. float_of_int k
  in
  if lockstep inp && Array.length r.round_ms >= inp.spec.rounds then
    mean (inp.spec.rounds - k) /. mean k
  else nan

let repetitions ~exe ~workdir inp count =
  let st = new_state inp in
  List.init count (fun k ->
      let r = Gen.run_rep ~exe ~workdir ~st inp in
      let p50, p90 = p50_p90 r.round_ms in
      let d50, d90 = p50_p90 r.decision_ms in
      Printf.printf
        "repetition %2d: %8.0f req/s  round p50 %.3f p90 %.3f ms  \
         decision p50 %.3f p90 %.3f ms  %.2f us cpu/req  setup %.4f s  \
         rss %.1f MB  round growth x%.2f\n%!"
        k (throughput r) p50 p90 d50 d90 (cpu_us_per_req r) r.setup_s
        (float_of_int r.rss_kb /. 1024.0) (growth inp r);
      r)

let run_e2e ~exe ~workdir ~seconds (inp : Workload.inputs) refs =
  let t0 = now () in
  let reps =
    repetitions ~exe ~workdir inp (Workload.reps inp.spec ~seconds)
  in
  Printf.printf "%d repetitions in %.1f s\n" (List.length reps) (now () -. t0);
  check_reps inp refs reps;
  (reps, e2e_metrics inp reps)

let us x = x *. 1e6
let ns x = x *. 1e9

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> v
  | Some _ | None -> 0

let run_traced ~exe ~workdir ~seconds (inp : Workload.inputs) refs =
  let t0 = now () in
  let reps = repetitions ~exe ~workdir inp 3 in
  check_reps inp refs reps;
  let rep = List.hd reps in
  (* in-process passes: untraced serve, traced serve and the live engine
     in turn until the time is used.  Every layer time is the mean over
     all passes of its kind; interleaving them keeps the host's drift
     out of the differences the reconciliation takes between kinds. *)
  let rec passes acc k =
    let u = Traced.serve_pass ~traced:false inp in
    let t = Traced.serve_pass ~traced:true inp in
    let l = Traced.live_pass inp in
    let acc = (u, t, l) :: acc in
    if now () -. t0 < seconds && k < 16 then passes acc (k + 1) else acc
  in
  let runs = passes [] 0 in
  let np = List.length runs in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 runs /. float_of_int np in
  let untraced_wall = avg (fun (u, _, _) -> u.Traced.wall_s) in
  let traced_wall = avg (fun (_, t, _) -> t.Traced.wall_s) in
  let parse_s = avg (fun (_, t, _) -> t.Traced.parse_s) in
  let admit_s = avg (fun (_, t, _) -> t.Traced.admit_s) in
  let render_s = avg (fun (_, t, _) -> t.Traced.render_s) in
  let step_total = avg (fun (_, t, _) -> Traced.Samples.sum t.Traced.step_s) in
  let strat_total = avg (fun (_, t, _) -> Traced.Samples.sum t.Traced.strat_s) in
  let submit_s = avg (fun (_, _, l) -> l.Traced.submit_s) in
  let ledger_s = avg (fun (_, _, l) -> l.Traced.live_step_s -. l.live_strat_s) in
  (* counts and counters repeat exactly from pass to pass *)
  let _, tr, live = List.hd runs in
  if lockstep inp then
    check "in-process replay = served decisions"
      (List.for_all (fun (u, t, _) ->
           u.Traced.digest = rep.digest && t.Traced.digest = rep.digest)
          runs)
      (Printf.sprintf "%d passes" (2 * List.length runs));
  check "in-process replay admitted every request"
    (List.for_all (fun (u, t, _) -> u.Traced.overload = 0 && t.Traced.overload = 0)
       runs)
    (Printf.sprintf "%d passes" (2 * List.length runs));
  let cp = Traced.ref_pass ~max_rounds:300 inp in
  let incr_ns, observe_ns = Traced.obs_ns () in
  let rounds = float_of_int inp.horizon in
  (* lock-step: mean round time of each untraced repetition; paced: the
     observed tick period *)
  let e2e_round =
    median
      (Array.of_list
         (List.map
            (fun (r : Gen.rep) ->
               if lockstep inp then
                 Array.fold_left ( +. ) 0.0 r.round_ms /. 1000.0 /. rounds
               else median r.round_ms /. 1000.0)
            reps))
  in
  let traced_round = traced_wall /. rounds in
  let ledger = ledger_s /. rounds in
  let submit = submit_s /. rounds in
  let timed =
    [
      ("serve.parse", parse_s /. rounds);
      ("serve.admit", admit_s /. rounds);
      ("serve.shard_self",
       ((step_total -. strat_total) /. rounds) -. ledger -. submit);
      ("sched.submit", submit);
      ("sched.ledger", ledger);
      ("shard strategy step", strat_total /. rounds);
      ("serve.render", render_s /. rounds);
    ]
  in
  let layer_sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 timed in
  let layers = timed @ [ ("in-process loop", traced_round -. layer_sum) ] in
  let io_residual = e2e_round -. traced_round in
  Printf.printf
    "\nreconciliation (per round; traced in-process round %.1f us, \
     e2e round %.1f us)\n"
    (us traced_round) (us e2e_round);
  List.iter
    (fun (name, v) ->
       Printf.printf "  %-22s %10.2f us  %6.1f%% of in-process\n" name (us v)
         (100.0 *. v /. traced_round))
    layers;
  Printf.printf "  %-22s %10.2f us  %6.1f%% of e2e round\n" "serve.io_residual"
    (us io_residual) (100.0 *. io_residual /. e2e_round);
  Printf.printf "  tracing overhead: traced %.1f us vs untraced %.1f us per round\n\n"
    (us traced_round) (us (untraced_wall /. rounds));
  let negative = List.filter (fun (_, v) -> v < 0.0) layers in
  check "layer self times >= 0" (negative = [])
    (String.concat ", "
       (List.map (fun (name, v) -> Printf.sprintf "%s %.2f us" name (us v))
          negative));
  let snap = tr.snapshot in
  Printf.printf "counter serve.outbox_stalls %d\n"
    (counter snap "serve.outbox_stalls");
  let searches = counter cp.kernel "strategy.augment_searches" in
  let hits = counter cp.kernel "strategy.warm_hits" in
  let step_us =
    concat_map (fun (_, t, _) -> Array.map us (Traced.Samples.to_array t.Traced.step_s)) runs
  in
  let kernel_us = Array.map us cp.kernel_step in
  let cl_us = Array.map us cp.cluster_step in
  let loc_us = Array.map us cp.local_step in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let s = cp.stats in
  let per_sround v = float_of_int v /. float_of_int s.scheduling_rounds in
  let late = concat_map (fun (r : Gen.rep) -> r.late_ms) reps in
  let busy = median (Array.of_list (List.map (fun (r : Gen.rep) -> r.gen_busy) reps)) in
  let q = quantile in
  [
    m "serve.parse_ns_per_line" "ns" (ns parse_s /. float_of_int tr.lines) (np * tr.lines);
    m "serve.render_ns_per_reply" "ns" (ns render_s /. float_of_int tr.replies) (np * tr.replies);
    m "serve.admit_ns_per_req" "ns" (ns admit_s /. float_of_int tr.requests) (np * tr.requests);
    m "serve.step_us_p50" "us" (q step_us 0.5) (Array.length step_us);
    m "serve.step_us_p99" "us" (q step_us 0.99) (Array.length step_us);
    m "serve.inbox_depth_mean" "count"
      (float_of_int tr.depth_sum /. float_of_int tr.depth_n) tr.depth_n;
    m "serve.truncated_share" "ratio"
      (float_of_int (counter snap "serve.truncated_alternatives")
       /. float_of_int tr.requests) tr.requests;
    m "serve.io_residual_share" "ratio" (io_residual /. e2e_round) inp.horizon;
    m "sched.ledger_us_per_round" "us" (us ledger) (np * inp.horizon);
    m "sched.submit_ns" "ns" (ns submit_s /. float_of_int live.submits) (np * live.submits);
    m "strategies.step_us_p50" "us" (q kernel_us 0.5) (Array.length kernel_us);
    m "strategies.step_us_p99" "us" (q kernel_us 0.99) (Array.length kernel_us);
    m "graph.augment_searches_per_round" "count"
      (float_of_int searches /. float_of_int cp.rounds) cp.rounds;
    m "graph.warm_hit_rate" "ratio"
      (float_of_int hits /. float_of_int (hits + searches)) (hits + searches);
    m "cluster.step_us_p50" "us" (q cl_us 0.5) (Array.length cl_us);
    m "cluster.step_us_p99" "us" (q cl_us 0.99) (Array.length cl_us);
    m "cluster.msgs_per_round" "count" (per_sround s.messages) s.scheduling_rounds;
    m "cluster.comm_rounds_per_round" "count" (per_sround s.comm_rounds_total)
      s.scheduling_rounds;
    m "cluster.bounce_rate" "ratio"
      (float_of_int s.bounced /. float_of_int s.messages) s.messages;
    m "localstrat.step_us_p50" "us" (q loc_us 0.5) (Array.length loc_us);
    m "cluster.overhead_us_per_round" "us" (mean cl_us -. mean loc_us) (Array.length cl_us);
    m "obs.incr_ns" "ns" incr_ns 1_000_000;
    m "obs.observe_ns" "ns" observe_ns 1_000_000;
    m "gen.render_ns_per_req" "ns" inp.render_ns_per_req (Workload.n_requests inp);
    m "gen.busy_share" "ratio" busy (List.length reps);
    m "gen.late_p99_ms" "ms" (q late 0.99) (Array.length late);
    m "gen.late_max_ms" "ms" (Array.fold_left Float.max 0.0 late) (Array.length late);
    m "recon.layer_sum_share" "ratio" (layer_sum /. traced_round) np;
    m "trace.overhead_share" "ratio" ((traced_wall /. untraced_wall) -. 1.0) np;
  ]
  |> fun metrics -> (reps, metrics)

(* ------------------------------------------------------------------ *)
(* output *)

(* A non-finite metric (an empty sample set, a zero denominator) fails
   the finite-metrics check and is written as null. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i x ->
       Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
         (if i = 0 then "" else ", ")
         x.name (json_number x.value) x.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let usage () =
  prerr_endline
    "usage: bench.exe --workload (cluster|paced) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let spec =
    match Workload.find !workload with Some s -> s | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let exe = "_build/default/bin/reqsched.exe" in
  let workdir = ".perfbench-work" in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "bench: server binary %s not found\n" exe;
    exit 2
  end;
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* no server outlives this process, however it ends *)
  at_exit Gen.kill_all;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let t0 = now () in
  let inp = Workload.make spec ~seed:!seed in
  let refs = references inp in
  Printf.printf
    "workload %s seed %d: %d requests over %d rounds, OPT %d, nproc %d \
     (inputs and references %.2fs)\n%!"
    spec.name !seed (Workload.n_requests inp) inp.horizon inp.opt
    (Domain.recommended_domain_count ()) (now () -. t0);
  (* set-up garbage must not be collected inside a timed window *)
  Gc.compact ();
  match
    if !trace = 0 then run_e2e ~exe ~workdir ~seconds:!seconds inp refs
    else run_traced ~exe ~workdir ~seconds:!seconds inp refs
  with
  | exception Gen.Failed msg ->
    Gen.kill_all ();
    Printf.eprintf "bench: %s\n" msg;
    exit 1
  | reps, metrics ->
    List.iter
      (fun x ->
         Printf.printf "metric %-34s %14.6g %-6s samples=%d\n" x.name x.value
           x.unit_ x.samples)
      metrics;
    let broken = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
    check "every metric finite" (broken = [])
      (String.concat ", " (List.map (fun x -> x.name) broken));
    let correct = all_ok () in
    print_endline
      (result ~correct
         ~attempted:(isum (fun r -> r.Gen.submitted) reps)
         ~failed:(isum rep_failed reps) metrics);
    exit (if correct then 0 else 1)
