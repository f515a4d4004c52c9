(* The benchmark workloads: their parameters, the instance each seed
   generates, the wire lines the server receives, and the offline
   references the outputs are checked against.  Everything here is built
   once per (workload, seed), outside every timed window. *)

type tick = Lockstep | Paced of float  (* seconds per server round *)

type server =
  | Serve of { shards : int }   (* serve running greedy_2choice *)
  | Cluster of { nodes : int }  (* router tier running local_fix *)

type spec = {
  name : string;
  n : int;
  d : int;
  load : float;
  rounds : int;        (* arrival rounds replayed per repetition *)
  tick : tick;
  server : server;
  rep_s : float;       (* nominal seconds per repetition, see [reps] *)
}

let specs =
  [
    { name = "cluster"; n = 64; d = 4; load = 1.1; rounds = 1200;
      tick = Lockstep; server = Cluster { nodes = 3 }; rep_s = 1.75 };
    { name = "paced"; n = 64; d = 4; load = 1.0; rounds = 1000;
      tick = Paced 0.004;
      server = Serve { shards = 4 };
      rep_s = 4.25 };
  ]

(* Repetitions in a run of [seconds]: fixed by the arguments alone, so a
   slower program takes longer instead of measuring fewer repetitions.
   [rep_s] is a repetition's duration on the reference host (README). *)
let reps spec ~seconds = max 3 (int_of_float (seconds /. spec.rep_s))

let find name = List.find_opt (fun s -> s.name = name) specs

let shards spec =
  match spec.server with Serve { shards; _ } -> shards | Cluster _ -> 1

(* Contiguous resource slices exactly as [Serve.Server.start] cuts them:
   stride = ceil(n / shards), the last slice possibly short. *)
let stride spec =
  let k = max 1 (min (shards spec) spec.n) in
  (spec.n + k - 1) / k

let slices spec =
  let s = stride spec in
  let k = (spec.n + s - 1) / s in
  Array.init k (fun i -> (i * s, min spec.n ((i + 1) * s)))

(* The strategy each shard (or the in-process reference) runs.  The
   server builds the same factories from the same names. *)
let factory ?metrics ?on_create spec : Sched.Strategy.factory =
  match spec.server with
  | Serve _ -> Strategies.Twochoice.least_loaded ()
  | Cluster { nodes } ->
    Cluster.Session.factory ?metrics ?on_create
      ~strategy:Cluster.Session.Local_fix ~nodes ()

let server_args spec ~sock ~seed =
  let common =
    [ "--listen"; "unix:" ^ sock; "-n"; string_of_int spec.n; "-d";
      string_of_int spec.d ]
  in
  let tick =
    match spec.tick with
    | Lockstep -> [ "--manual" ]
    | Paced dt -> [ "--tick-ms"; Printf.sprintf "%g" (dt *. 1000.0) ]
  in
  match spec.server with
  | Serve { shards } ->
    ("serve" :: common)
    @ [ "--shards"; string_of_int shards; "--domains"; "1"; "-s";
        "greedy_2choice";
        "--seed"; string_of_int seed ]
    @ tick
  | Cluster { nodes } ->
    ("cluster" :: common)
    @ [ "--nodes"; string_of_int nodes; "-s"; "local_fix" ]
    @ tick

(* ------------------------------------------------------------------ *)
(* inputs *)

type inputs = {
  spec : spec;
  seed : int;
  inst : Sched.Instance.t;
  horizon : int;               (* rounds until every window has closed *)
  lines : string array array;  (* arrival round -> client wire lines *)
  payload : string array;      (* round -> bytes written that round *)
  opt : int;                   (* offline optimum of inst *)
  render_ns_per_req : float;   (* Protocol.render_client, per request *)
}

let request_msg (r : Sched.Request.t) =
  {
    Serve.Protocol.tag = r.id;
    alternatives = Array.to_list r.alternatives;
    deadline = r.deadline;
  }

let make spec ~seed =
  let rng = Prelude.Rng.create ~seed in
  let inst =
    Adversary.Random_workload.make ~rng ~n:spec.n ~d:spec.d
      ~rounds:spec.rounds ~load:spec.load ()
  in
  let horizon = inst.Sched.Instance.horizon in
  let msgs =
    Array.init horizon (fun r ->
        Array.map
          (fun q -> Serve.Protocol.Submit (request_msg q))
          (Sched.Instance.arrivals_at inst r))
  in
  let t0 = Unix.gettimeofday () in
  let lines = Array.map (Array.map Serve.Protocol.render_client) msgs in
  let render_s = Unix.gettimeofday () -. t0 in
  let payload =
    Array.map
      (fun ls ->
         let b = Buffer.create 4096 in
         Array.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') ls;
         (match spec.tick with
          | Lockstep -> Buffer.add_string b "tick\n"
          | Paced _ -> ());
         Buffer.contents b)
      lines
  in
  let nreq = max 1 (Sched.Instance.n_requests inst) in
  {
    spec;
    seed;
    inst;
    horizon;
    lines;
    payload;
    (* Hopcroft-Karp, the library's reference route: exact like
       Opt.value, and 8-15x faster on these random instances *)
    opt = Offline.Opt.expanded inst;
    render_ns_per_req = render_s *. 1e9 /. float_of_int nreq;
  }

let n_requests i = Sched.Instance.n_requests i.inst

(* ------------------------------------------------------------------ *)
(* decision digests *)

(* Terminal kinds as the generator records them. *)
let k_none = 0
let k_sched = 1
let k_exp = 2
let k_rej = 3

(* FNV-style fold over (tag, kind, round, resource), tags ascending;
   equal digests mean byte-identical decision logs. *)
let digest_step h v = (h lxor v) * 0x100000001b3 land max_int

let digest ~count f =
  let h = ref 0x3bf29ce484222325 in
  for tag = 0 to count - 1 do
    let kind, round, res = f tag in
    h := digest_step !h tag;
    h := digest_step !h kind;
    h := digest_step !h round;
    h := digest_step !h res
  done;
  !h

let outcome_digest (o : Sched.Outcome.t) =
  digest ~count:(Array.length o.served_at) (fun id ->
      match o.served_at.(id) with
      | Some (res, round) -> (k_sched, round, res)
      | None -> (k_exp, 0, 0))
