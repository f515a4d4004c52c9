(* The router tier.  The paper's local strategies run here as the one
   protocol in Localstrat.Local, over a cluster fabric: every protocol
   message is mapped to its Wire payload, travels through the
   Transport as rendered bytes, and is rebuilt from the parsed
   envelope, so every decision is driven by what was actually
   delivered; the fabric's event callbacks materialise each accepted
   decision on the owning node's replica and answer with a reply
   line.  Decisions depend only on resources and senders (so they are
   identical to the simulator and invariant under node placement),
   while the replicas carry the state that is genuinely lost when a
   node dies.  What stays here is cluster-specific: ring placement,
   liveness and failover, rejoin handoff, replica-confirmed serves and
   the proxy-global baseline. *)

module Request = Sched.Request
module Strategy = Sched.Strategy
module Slots = Localstrat.Slots
module Local = Localstrat.Local

type kind =
  | Local_fix
  | Local_eager of { compact : bool }
  | Proxy_global

let kind_name = function
  | Local_fix -> "local_fix"
  | Local_eager { compact = false } -> "local_eager"
  | Local_eager { compact = true } -> "local_eager_compact"
  | Proxy_global -> "proxy_global"

type stats = {
  scheduling_rounds : int;
  comm_rounds_total : int;
  comm_rounds_max : int;
  messages : int;
  bounced : int;
  dropped_dead : int;
  requests : int;
  straddled : int;
  served : int;
  expired : int;
  readmitted : int;
  failovers : int;
  handoffs : int;
  handoff_slots : int;
  serve_conflicts : int;
}

type outcome = {
  round : int;
  served : (int * int) list;
  expired : int list;
}

type t = {
  n : int;
  d : int;
  kind : kind;
  fail_after : int;
  metrics : Obs.Metrics.t option;
  transport : Transport.t;
  nodes : Node.t array;
  mutable ring : Ring.t;
  suspected : int array;        (* consecutive missed pongs *)
  confirmed_dead : bool array;  (* the router's view; Node.alive is truth *)
  state : Local.state;          (* the protocol's decision state *)
  mutable round : int;
  mutable queue : Request.t list;  (* reversed pending submissions *)
  mutable readmit : int list;      (* failover re-admissions, oldest first *)
  mutable next_id : int;
  mutable requests_n : int;
  mutable straddled_n : int;
  mutable served_n : int;
  mutable expired_n : int;
  mutable readmitted_n : int;
  mutable failovers_n : int;
  mutable handoffs_n : int;
  mutable handoff_slots_n : int;
  mutable conflicts_n : int;
}

let met ?(by = 1) t key =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr ~by m key

let create ?metrics ?capacity ?priority ?(fail_after = 2) ?vnodes ~strategy
    ~nodes ~n ~d () =
  if nodes < 1 then invalid_arg "Session.create: nodes < 1";
  if n < 1 then invalid_arg "Session.create: n < 1";
  if d < 1 then invalid_arg "Session.create: d < 1";
  if fail_after < 1 then invalid_arg "Session.create: fail_after < 1";
  let capacity =
    match capacity with
    | Some c ->
      (* the cancellation round is only guaranteed bounce-free at
         capacity >= d (at most d-1 cancels target one resource) *)
      if c < d then invalid_arg "Session.create: capacity < d"
      else c
    | None ->
      (match strategy with
       | Local_eager { compact = true } -> max d ((2 * d) - 2)
       | Local_fix | Local_eager _ | Proxy_global -> d)
  in
  let metrics = Obs.Metrics.resolve metrics in
  let transport = Transport.create ~n ~capacity ?priority ?metrics () in
  let t =
    {
      n;
      d;
      kind = strategy;
      fail_after;
      metrics;
      transport;
      nodes = Array.init nodes (fun id -> Node.create ~id);
      ring = Ring.create ?vnodes ~nodes:(List.init nodes Fun.id) ();
      suspected = Array.make nodes 0;
      confirmed_dead = Array.make nodes false;
      state = Local.create_state ~n;
      round = 0;
      queue = [];
      readmit = [];
      next_id = 0;
      requests_n = 0;
      straddled_n = 0;
      served_n = 0;
      expired_n = 0;
      readmitted_n = 0;
      failovers_n = 0;
      handoffs_n = 0;
      handoff_slots_n = 0;
      conflicts_n = 0;
    }
  in
  (match metrics with
   | Some m -> Obs.Metrics.set m "cluster.nodes" (float_of_int nodes)
   | None -> ());
  Array.iter
    (fun node ->
       ignore
         (Transport.control transport (Wire.Hello { node = Node.id node })))
    t.nodes;
  t

let round t = t.round
let node_alive t k = Node.alive t.nodes.(k)
let owner t res = Ring.owner t.ring res
let node_of t res = t.nodes.(Ring.owner t.ring res)
let pending t = Hashtbl.length t.state.Local.active + List.length t.queue

let exchange t envs =
  Transport.exchange t.transport
    ~owner:(fun res -> Ring.owner t.ring res)
    ~alive:(fun k -> Node.alive t.nodes.(k))
    envs

let respond t reply = ignore (Transport.respond t.transport reply)

(* ------------------------------------------------------------------ *)
(* submission *)

let enqueue t (r : Request.t) =
  if r.Request.id >= t.next_id then t.next_id <- r.Request.id + 1;
  t.queue <- r :: t.queue

let submit t ~alternatives ~deadline =
  if deadline < 1 || deadline > t.d then
    Error (Printf.sprintf "deadline %d outside 1 .. %d" deadline t.d)
  else if List.exists (fun res -> res < 0 || res >= t.n) alternatives then
    Error "alternative resource out of range"
  else
    match Request.make ~arrival:t.round ~alternatives ~deadline with
    | exception Invalid_argument m -> Error m
    | proto ->
      let id = t.next_id in
      enqueue t (Request.with_id proto id);
      Ok id

(* ------------------------------------------------------------------ *)
(* liveness: ping sweep, failover, rejoin *)

let declare_dead t k =
  t.confirmed_dead.(k) <- true;
  t.failovers_n <- t.failovers_n + 1;
  met t "cluster.failovers";
  let old_ring = t.ring in
  if List.length (Ring.members t.ring) > 1 && Ring.mem t.ring k then
    t.ring <- Ring.remove t.ring k;
  (* every request assigned to a resource the dead node hosted has lost
     its slot with the node's state: free it in the decision state and
     push the survivors back through the next round's offer phase,
     windows untouched *)
  let victims =
    Hashtbl.fold
      (fun id (res, slot) acc ->
         if Ring.owner old_ring res = k then (id, res, slot) :: acc else acc)
      t.state.Local.assigned []
    |> List.sort compare
  in
  List.iter
    (fun (id, res, slot) ->
       Slots.free t.state.Local.slots ~res ~round:slot;
       Hashtbl.remove t.state.Local.assigned id;
       if Hashtbl.mem t.state.Local.active id then begin
         t.readmit <- t.readmit @ [ id ];
         t.readmitted_n <- t.readmitted_n + 1;
         met t "cluster.readmitted"
       end)
    victims

let ping_sweep t =
  Array.iteri
    (fun k node ->
       if not t.confirmed_dead.(k) then begin
         ignore (Transport.control t.transport (Wire.Ping { round = t.round }));
         if Node.alive node then begin
           t.suspected.(k) <- 0;
           respond t (Wire.Pong { node = k; round = t.round })
         end
         else begin
           t.suspected.(k) <- t.suspected.(k) + 1;
           if t.suspected.(k) >= t.fail_after then declare_dead t k
         end
       end)
    t.nodes

let kill t k =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg "Session.kill: unknown node";
  if not (Node.alive t.nodes.(k)) then
    invalid_arg "Session.kill: node already dead";
  Node.kill t.nodes.(k)

let rejoin t k =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg "Session.rejoin: unknown node";
  if Node.alive t.nodes.(k) then invalid_arg "Session.rejoin: node is alive";
  Node.revive t.nodes.(k);
  t.suspected.(k) <- 0;
  if t.confirmed_dead.(k) then begin
    t.confirmed_dead.(k) <- false;
    ignore
      (Transport.control t.transport (Wire.Join { node = k; round = t.round }));
    let old_ring = t.ring in
    if not (Ring.mem t.ring k) then t.ring <- Ring.add t.ring k;
    (* every resource that moves back to the rejoined node carries its
       future slots over in an explicit handoff from the survivor that
       hosted them *)
    List.iter
      (fun res ->
         let donor = t.nodes.(Ring.owner old_ring res) in
         if Node.alive donor then begin
           match Node.export donor ~res ~from_round:t.round with
           | [] -> ()
           | slots ->
             (match
                Transport.control t.transport (Wire.Handoff { res; slots })
              with
              | Wire.Handoff { res = res'; slots = slots' } ->
                Node.import t.nodes.(k) ~res:res' slots'
              | _ -> assert false);
             t.handoffs_n <- t.handoffs_n + 1;
             met t "cluster.handoffs";
             t.handoff_slots_n <- t.handoff_slots_n + List.length slots;
             met ~by:(List.length slots) t "cluster.handoff_slots"
         end)
      (Ring.moved ~before:old_ring ~after:t.ring ~n:t.n)
  end

(* ------------------------------------------------------------------ *)
(* serve collection: the decision state claims, the replica confirms *)

let collect_serves t ~round =
  let serves = ref [] in
  for res = t.n - 1 downto 0 do
    match Slots.take t.state.Local.slots ~res ~round with
    | None -> ()
    | Some id ->
      Hashtbl.remove t.state.Local.assigned id;
      let node = node_of t res in
      let confirmed =
        Node.alive node
        &&
        match Node.take_slot node ~res ~round with
        | Some ri when ri.Wire.rid = id -> true
        | Some _ | None ->
          t.conflicts_n <- t.conflicts_n + 1;
          met t "cluster.serve_conflicts";
          false
      in
      if confirmed then begin
        respond t (Wire.Served { res; round; q = id });
        Hashtbl.remove t.state.Local.active id;
        serves := (id, res) :: !serves
      end
      else if Hashtbl.mem t.state.Local.active id then begin
        (* the node lost the slot with its state before the router
           noticed: the serve did not happen.  Re-admit while the
           window still allows; expiry provides the terminal if not. *)
        t.readmit <- t.readmit @ [ id ];
        t.readmitted_n <- t.readmitted_n + 1;
        met t "cluster.readmitted"
      end
  done;
  !serves

(* ------------------------------------------------------------------ *)
(* the cluster fabric: Localstrat.Local's protocol over the wire *)

let to_wire : Local.msg -> Wire.data =
  let ri = Wire.reqinfo_of_request in
  function
  | Local.Offer r -> Wire.Offer (ri r)
  | Local.Probe r -> Wire.Probe (ri r)
  | Local.Cancel { q; old_res; old_t } -> Wire.Cancel { q; old_res; old_t }
  | Local.Rival r -> Wire.Rival (ri r)
  | Local.Swap { r; q } -> Wire.Swap { r; q = ri q }
  | Local.Rehome { r; res } -> Wire.Rehome { r = ri r; res }

let of_wire : Wire.data -> Local.msg =
  let rq = Wire.request_of_reqinfo in
  function
  | Wire.Offer ri -> Local.Offer (rq ri)
  | Wire.Probe ri -> Local.Probe (rq ri)
  | Wire.Cancel { q; old_res; old_t } -> Local.Cancel { q; old_res; old_t }
  | Wire.Rival ri -> Local.Rival (rq ri)
  | Wire.Swap { r; q } -> Local.Swap { r; q = rq q }
  | Wire.Rehome { r; res } -> Local.Rehome { r = rq r; res }
  | Wire.Loadq | Wire.Assign _ -> assert false (* proxy-global only *)

let set_replica t ~res ~slot r =
  Node.set_slot (node_of t res) ~res ~round:slot (Wire.reqinfo_of_request r)

(* Every decision is taken on the payloads rebuilt from the parsed
   envelopes; the callbacks write the replicas and send the replies at
   the points the protocol commits. *)
let fabric t =
  {
    Local.exchange =
      (fun msgs ->
         msgs
         |> List.map (fun m -> { m with Wire.payload = to_wire m.Wire.payload })
         |> exchange t
         |> List.map (fun ((e : Wire.env), st) ->
             ({ e with Wire.payload = of_wire e.Wire.payload }, st)));
    comm_rounds = (fun () -> Transport.comm_rounds t.transport);
    accepted =
      (fun ~res ~slot r ->
         set_replica t ~res ~slot r;
         respond t (Wire.Accept { q = r.Request.id; res; slot }));
    rejected_full =
      (fun ~res r -> respond t (Wire.Full { q = r.Request.id; res }));
    (* the new owner's replica is pre-positioned at acknowledgment
       time; a cancel can only bounce below capacity d, and replicas are
       only read at end of round *)
    probe_acked =
      (fun ~res ~slot r ->
         respond t (Wire.Ack { q = r.Request.id; res });
         set_replica t ~res ~slot r);
    rival_granted =
      (fun ~res q -> respond t (Wire.Ack { q = q.Request.id; res }));
    cancel_landed =
      (fun ~res ~slot -> Node.free_slot (node_of t res) ~res ~round:slot);
    swap_applied = (fun ~res ~slot q -> set_replica t ~res ~slot q);
  }

(* ------------------------------------------------------------------ *)
(* the proxy-global baseline: probe both loads, assign the earliest *)

let free_slot_in_window t ~round ~res (r : Request.t) =
  let last = Request.last_round r in
  let rec scan slot =
    if slot > last then None
    else if Slots.mem t.state.Local.slots ~res ~round:slot then scan (slot + 1)
    else Some slot
  in
  scan (max round r.Request.arrival)

let proxy_tick t (f : Local.fabric) ~round =
  let unscheduled =
    Hashtbl.fold
      (fun id r acc ->
         if Hashtbl.mem t.state.Local.assigned id then acc else r :: acc)
      t.state.Local.active []
    |> List.sort (fun (a : Request.t) b ->
        let la = Request.last_round a and lb = Request.last_round b in
        if la <> lb then compare la lb else compare a.Request.id b.Request.id)
  in
  (* round 1: load probes to every alternative *)
  let probes =
    List.concat_map
      (fun (q : Request.t) ->
         Array.to_list q.Request.alternatives
         |> List.map (fun res ->
             {
               Wire.sender = q.Request.id;
               dst = res;
               deadline_key = Request.last_round q;
               tagged = false;
               payload = Wire.Loadq;
             }))
      unscheduled
  in
  let results = exchange t probes in
  let offers = Hashtbl.create 32 in
  (* (request, resource) -> earliest free slot *)
  List.iter
    (fun ((e : Wire.env), st) ->
       if st = Transport.Delivered then
         match Hashtbl.find_opt t.state.Local.active e.Wire.sender with
         | None -> ()
         | Some q ->
           (match free_slot_in_window t ~round ~res:e.Wire.dst q with
            | Some slot ->
              respond t
                (Wire.Freeat { q = e.Wire.sender; res = e.Wire.dst; slot });
              Hashtbl.replace offers (e.Wire.sender, e.Wire.dst) slot
            | None ->
              respond t (Wire.Full { q = e.Wire.sender; res = e.Wire.dst })))
    results;
  (* round 2: claim the earliest offered slot (first alternative wins
     ties); the resource re-checks, the probe answer may be stale *)
  let assigns =
    List.filter_map
      (fun (q : Request.t) ->
         let best =
           Array.fold_left
             (fun best res ->
                match Hashtbl.find_opt offers (q.Request.id, res) with
                | None -> best
                | Some slot ->
                  (match best with
                   | Some (_, s) when s <= slot -> best
                   | _ -> Some (res, slot)))
             None q.Request.alternatives
         in
         match best with
         | None -> None
         | Some (res, _slot) ->
           Some
             {
               Wire.sender = q.Request.id;
               dst = res;
               deadline_key = Request.last_round q;
               tagged = false;
               payload = Wire.Assign (Wire.reqinfo_of_request q);
             })
      unscheduled
  in
  let results = exchange t assigns in
  let ordered =
    List.sort (fun (a, _) (b, _) -> Local.by_deadline a b) results
  in
  List.iter
    (fun ((e : Wire.env), st) ->
       match (st, e.Wire.payload) with
       | Transport.Delivered, Wire.Assign ri ->
         let r = Wire.request_of_reqinfo ri and res = e.Wire.dst in
         (match Local.try_accept t.state ~round res r with
          | Some slot -> f.Local.accepted ~res ~slot r
          | None -> f.Local.rejected_full ~res r)
       | _ -> ())
    ordered

(* ------------------------------------------------------------------ *)
(* the scheduling round *)

let step t =
  let round = t.round in
  let st = t.state and f = fabric t in
  let max0 = st.Local.max_cr in
  let expired =
    Local.metered st f (fun () ->
        ping_sweep t;
        let expired = Local.expire st ~round in
        let arrivals = List.rev t.queue in
        t.queue <- [];
        List.iter
          (fun (r : Request.t) ->
             Hashtbl.replace st.Local.active r.Request.id r;
             t.requests_n <- t.requests_n + 1;
             met t "cluster.requests";
             if
               Array.length r.Request.alternatives >= 2
               && owner t r.Request.alternatives.(0)
                  <> owner t r.Request.alternatives.(1)
             then begin
               t.straddled_n <- t.straddled_n + 1;
               met t "cluster.straddle"
             end)
          arrivals;
        let readmits =
          List.filter_map (fun id -> Hashtbl.find_opt st.Local.active id)
            t.readmit
        in
        t.readmit <- [];
        (match t.kind with
         | Local_fix -> Local.fix_round st f ~round (readmits @ arrivals)
         | Local_eager { compact } -> Local.eager_round st f ~compact ~round
         | Proxy_global -> proxy_tick t f ~round);
        expired)
  in
  (match t.metrics with
   | Some m when st.Local.max_cr > max0 ->
     Obs.Metrics.set_counter m "cluster.comm_rounds_max" st.Local.max_cr
   | Some _ | None -> ());
  let served = collect_serves t ~round in
  t.served_n <- t.served_n + List.length served;
  met ~by:(List.length served) t "cluster.served";
  t.expired_n <- t.expired_n + List.length expired;
  met ~by:(List.length expired) t "cluster.expired";
  t.round <- round + 1;
  { round; served; expired }

let stats t =
  {
    scheduling_rounds = t.state.Local.sched_rounds;
    comm_rounds_total = Transport.comm_rounds t.transport;
    comm_rounds_max = t.state.Local.max_cr;
    messages = Transport.messages t.transport;
    bounced = Transport.bounced t.transport;
    dropped_dead = Transport.dropped_dead t.transport;
    requests = t.requests_n;
    straddled = t.straddled_n;
    served = t.served_n;
    expired = t.expired_n;
    readmitted = t.readmitted_n;
    failovers = t.failovers_n;
    handoffs = t.handoffs_n;
    handoff_slots = t.handoff_slots_n;
    serve_conflicts = t.conflicts_n;
  }

let factory ?metrics ?capacity ?priority ?fail_after ?vnodes ?on_create
    ~strategy ~nodes () : Strategy.factory =
 fun ~n ~d ->
  let t =
    create ?metrics ?capacity ?priority ?fail_after ?vnodes ~strategy ~nodes
      ~n ~d ()
  in
  (match on_create with Some f -> f t | None -> ());
  {
    Strategy.name =
      Printf.sprintf "%s@cluster%d" (kind_name strategy) nodes;
    step =
      (fun ~round ~arrivals ->
         if round <> t.round then
           invalid_arg
             (Printf.sprintf "Session: engine round %d, cluster round %d"
                round t.round);
         Array.iter (fun r -> enqueue t r) arrivals;
         let out = step t in
         List.map
           (fun (id, resource) -> { Strategy.request = id; resource })
           out.served);
  }
