(* The traced run: the workload's wire lines replayed in process through
   the serve path's public functions, with a timer around each call into
   a layer and no socket.  Per round:

     Protocol.parse_client    each client line
     route + Shard.try_admit_many   per shard touched, first-alternative
                                    routing over the server's slices
     Shard.step_once          every shard, the strategy's step wrapped
     Chan.drain_into + Protocol.render_server   every reply

   A second pass drives Sched.Engine.Live directly (submit and step
   timed, strategy step subtracted) for the engine's own ledger cost,
   and a third runs the local strategy, the cluster router tier and the
   warm-start kernel through Sched.Engine.run for their step costs.
   Nothing here reaches inside lib/: every number is a call boundary or
   an exported counter. *)

let now = Gen.now

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
  let sum s =
    let acc = ref 0.0 in
    for i = 0 to s.n - 1 do acc := !acc +. s.a.(i) done;
    !acc
end

(* Wrap a factory so every [step] lands in [samples] (seconds). *)
let timed_factory samples (f : Sched.Strategy.factory) : Sched.Strategy.factory
    =
 fun ~n ~d ->
  let s = f ~n ~d in
  {
    s with
    Sched.Strategy.step =
      (fun ~round ~arrivals ->
        let t0 = now () in
        let r = s.step ~round ~arrivals in
        Samples.add samples (now () -. t0);
        r);
  }

(* ------------------------------------------------------------------ *)
(* pass A: the serve path *)

type serve_pass = {
  wall_s : float;            (* the whole replay *)
  lines : int;
  requests : int;
  replies : int;
  parse_s : float;
  admit_s : float;
  step_s : Samples.t;        (* Shard.step_once, per shard per round *)
  strat_s : Samples.t;       (* wrapped Strategy.step *)
  render_s : float;
  depth_sum : int;           (* Shard.queue_depth before each step *)
  depth_n : int;
  overload : int;            (* try_admit_many shortfall *)
  snapshot : Obs.Metrics.snapshot;  (* merged shard registries *)
  digest : int;
}

let dummy_task = { Serve.Shard.conn = 0; tag = 0; alternatives = []; deadline = 0 }
let dummy_reply = (0, Serve.Protocol.Expired { tag = 0 })

(* [traced = false] drops every per-call timer and the strategy wrapper:
   the same replay, for the tracing-overhead comparison. *)
let serve_pass ~traced (inp : Workload.inputs) =
  let spec = inp.spec in
  let slices = Workload.slices spec in
  let stride = Workload.stride spec in
  let k = Array.length slices in
  let strat_s = Samples.create () in
  let step_s = Samples.create () in
  let registries = Array.init k (fun _ -> Obs.Metrics.create ()) in
  let outboxes =
    Array.init k (fun _ ->
        Serve.Chan.create_spsc ~capacity:65536 ~dummy:dummy_reply)
  in
  let shards =
    Array.init k (fun i ->
        let lo, hi = slices.(i) in
        let metrics = registries.(i) in
        let f = Workload.factory ~metrics spec in
        let strategy = if traced then timed_factory strat_s f else f in
        Serve.Shard.create ~metrics ~index:i ~lo ~hi ~d:spec.d
          ~queue_capacity:1024 ~strategy ~outbox:outboxes.(i) ())
  in
  let groups = Array.init k (fun _ -> Array.make 1024 dummy_task) in
  let counts = Array.make k 0 in
  let push i task =
    if counts.(i) = Array.length groups.(i) then begin
      let b = Array.make (2 * counts.(i)) dummy_task in
      Array.blit groups.(i) 0 b 0 counts.(i);
      groups.(i) <- b
    end;
    groups.(i).(counts.(i)) <- task;
    counts.(i) <- counts.(i) + 1
  in
  let route (r : Serve.Protocol.request) =
    push (List.hd r.alternatives / stride)
      { Serve.Shard.conn = 0; tag = r.tag; alternatives = r.alternatives;
        deadline = r.deadline }
  in
  let count = Workload.n_requests inp in
  let kind = Array.make count Workload.k_none in
  let d_round = Array.make count 0 in
  let d_res = Array.make count 0 in
  let resp = ref [||] in
  let parse_s = ref 0.0 and admit_s = ref 0.0 and render_s = ref 0.0 in
  let lines = ref 0 and requests = ref 0 and replies = ref 0 in
  let depth_sum = ref 0 and depth_n = ref 0 and overload = ref 0 in
  let record = function
    | Serve.Protocol.Scheduled { tag; round; resource } ->
      kind.(tag) <- Workload.k_sched;
      d_round.(tag) <- round;
      d_res.(tag) <- resource
    | Expired { tag } -> kind.(tag) <- Workload.k_exp
    | Rejected { tag; _ } -> kind.(tag) <- Workload.k_rej
    | Welcome _ | Round _ | Error _ -> ()
  in
  let t_begin = now () in
  for r = 0 to inp.horizon - 1 do
    Array.iter
      (fun line ->
         incr lines;
         let t0 = if traced then now () else 0.0 in
         let msg = Serve.Protocol.parse_client line in
         if traced then parse_s := !parse_s +. (now () -. t0);
         match msg with
         | Ok (Submit req) -> incr requests; route req
         | Ok _ | Error _ -> raise (Gen.Failed ("not a request line: " ^ line)))
      inp.lines.(r);
    for i = 0 to k - 1 do
      if counts.(i) > 0 then begin
        let t0 = if traced then now () else 0.0 in
        let ok =
          Serve.Shard.try_admit_many shards.(i) groups.(i) ~off:0 ~len:counts.(i)
        in
        if traced then admit_s := !admit_s +. (now () -. t0);
        overload := !overload + counts.(i) - ok;
        counts.(i) <- 0
      end
    done;
    Array.iter
      (fun sh ->
         if traced then begin
           depth_sum := !depth_sum + Serve.Shard.queue_depth sh;
           incr depth_n;
           let t0 = now () in
           Serve.Shard.step_once sh;
           Samples.add step_s (now () -. t0)
         end
         else Serve.Shard.step_once sh)
      shards;
    Array.iter
      (fun ob ->
         let m = Serve.Chan.drain_into ob resp in
         for j = 0 to m - 1 do
           let _, msg = !resp.(j) in
           let t0 = if traced then now () else 0.0 in
           let line = Serve.Protocol.render_server msg in
           if traced then render_s := !render_s +. (now () -. t0);
           ignore (Sys.opaque_identity line);
           record msg
         done;
         replies := !replies + m)
      outboxes
  done;
  let wall_s = now () -. t_begin in
  {
    wall_s;
    lines = !lines;
    requests = !requests;
    replies = !replies;
    parse_s = !parse_s;
    admit_s = !admit_s;
    step_s;
    strat_s;
    render_s = !render_s;
    depth_sum = !depth_sum;
    depth_n = !depth_n;
    overload = !overload;
    snapshot =
      Obs.Metrics.merge_all
        (Array.to_list (Array.map Serve.Shard.metrics_snapshot shards));
    digest =
      Workload.digest ~count (fun t -> (kind.(t), d_round.(t), d_res.(t)));
  }

(* ------------------------------------------------------------------ *)
(* pass B: the live engine alone *)

type live_pass = {
  submit_s : float;
  submits : int;
  live_step_s : float;   (* Live.step, all shards, all rounds *)
  live_strat_s : float;  (* the wrapped strategy steps inside it *)
}

let live_pass (inp : Workload.inputs) =
  let spec = inp.spec in
  let slices = Workload.slices spec in
  let stride = Workload.stride spec in
  let strat = Samples.create () in
  let engines =
    Array.map
      (fun (lo, hi) ->
         Sched.Engine.Live.create ~metrics:(Obs.Metrics.create ())
           ~n:(hi - lo) ~d:spec.d
           (timed_factory strat (Workload.factory spec)))
      slices
  in
  let submit_s = ref 0.0 and submits = ref 0 and step_s = ref 0.0 in
  for r = 0 to inp.horizon - 1 do
    Array.iter
      (fun (q : Sched.Request.t) ->
         let i = q.alternatives.(0) / stride in
         let lo, hi = slices.(i) in
         let local =
           Array.fold_right
             (fun a acc -> if a >= lo && a < hi then (a - lo) :: acc else acc)
             q.alternatives []
         in
         let t0 = now () in
         let res =
           Sched.Engine.Live.submit engines.(i) ~alternatives:local
             ~deadline:q.deadline
         in
         submit_s := !submit_s +. (now () -. t0);
         incr submits;
         match res with
         | Ok _ -> ()
         | Error m -> raise (Gen.Failed ("Live.submit: " ^ m)))
      (Sched.Instance.arrivals_at inp.inst r);
    Array.iter
      (fun e ->
         let t0 = now () in
         ignore (Sched.Engine.Live.step e);
         step_s := !step_s +. (now () -. t0))
      engines
  done;
  {
    submit_s = !submit_s;
    submits = !submits;
    live_step_s = !step_s;
    live_strat_s = Samples.sum strat;
  }

(* ------------------------------------------------------------------ *)
(* pass C: the local strategy, the cluster router tier and the kernel *)

type ref_pass = {
  rounds : int;                  (* engine rounds of the instance run *)
  local_step : float array;      (* Localstrat.Local.fix steps, seconds *)
  cluster_step : float array;    (* Cluster.Session steps, seconds *)
  stats : Cluster.Session.stats;
  kernel_step : float array;     (* Strategies.Global.fix steps, seconds *)
  kernel : Obs.Metrics.snapshot; (* Strategies.Global.fix's counters *)
}

(* The first [rounds] arrival rounds of an instance. *)
let prefix (inst : Sched.Instance.t) ~rounds =
  let reqs =
    Array.to_list inst.requests
    |> List.filter (fun (q : Sched.Request.t) -> q.arrival < rounds)
    |> List.map (fun (q : Sched.Request.t) ->
        Sched.Request.make ~arrival:q.arrival
          ~alternatives:(Array.to_list q.alternatives) ~deadline:q.deadline)
  in
  Sched.Instance.build ~n_resources:inst.n_resources ~d:inst.d reqs

let ref_pass ~max_rounds (inp : Workload.inputs) =
  let inst =
    if inp.spec.rounds <= max_rounds then inp.inst
    else prefix inp.inst ~rounds:max_rounds
  in
  let local = Samples.create () in
  ignore
    (Sched.Engine.run ~metrics:(Obs.Metrics.create ()) inst
       (timed_factory local (Localstrat.Local.fix ~metrics:(Obs.Metrics.create ()) ())));
  let cl = Samples.create () in
  let session = ref None in
  ignore
    (Sched.Engine.run ~metrics:(Obs.Metrics.create ()) inst
       (timed_factory cl
          (Cluster.Session.factory ~metrics:(Obs.Metrics.create ())
             ~on_create:(fun s -> session := Some s)
             ~strategy:Cluster.Session.Local_fix ~nodes:3 ())));
  let kernel = Obs.Metrics.create () in
  let ks = Samples.create () in
  ignore
    (Sched.Engine.run ~metrics:(Obs.Metrics.create ()) inst
       (timed_factory ks (Strategies.Global.fix ~metrics:kernel ())));
  match !session with
  | None -> raise (Gen.Failed "cluster session was never created")
  | Some s ->
    {
      rounds = inst.horizon;
      local_step = Samples.to_array local;
      cluster_step = Samples.to_array cl;
      stats = Cluster.Session.stats s;
      kernel_step = Samples.to_array ks;
      kernel = Obs.Metrics.snapshot kernel;
    }

(* ------------------------------------------------------------------ *)
(* obs: the registry calls the serve path makes per request *)

let obs_ns () =
  let m = Obs.Metrics.create () in
  let names =
    [| "serve.requests"; "serve.admitted"; "serve.lines_in";
       "serve.responses_out" |]
  in
  let hist = [| "serve.queue_depth"; "serve.tick_us" |] in
  let reps = 200_000 in
  let batch f =
    let t0 = now () in
    for i = 0 to reps - 1 do f i done;
    (now () -. t0) *. 1e9 /. float_of_int reps
  in
  let median5 f =
    let a = Array.init 5 (fun _ -> batch f) in
    Array.sort Float.compare a;
    a.(2)
  in
  let incr_ns = median5 (fun i -> Obs.Metrics.incr m names.(i land 3)) in
  let observe_ns =
    median5 (fun i -> Obs.Metrics.observe m hist.(i land 1) (float_of_int i))
  in
  (incr_ns, observe_ns)
