module Request = Sched.Request
module Strategy = Sched.Strategy
module Net = Distnet.Net

type stats = {
  scheduling_rounds : int;
  comm_rounds_total : int;
  comm_rounds_max : int;
  messages : int;
  bounced : int;
}

(* ------------------------------------------------------------------ *)
(* the protocol's vocabulary: decision state, messages, fabric *)

type state = {
  n : int;
  slots : int Slots.t; (* (resource, round) -> request id *)
  assigned : (int, int * int) Hashtbl.t; (* id -> (resource, round) *)
  active : (int, Request.t) Hashtbl.t;
  mutable sched_rounds : int;
  mutable max_cr : int;
}

let create_state ~n =
  {
    n;
    slots = Slots.create ();
    assigned = Hashtbl.create 128;
    active = Hashtbl.create 128;
    sched_rounds = 0;
    max_cr = 0;
  }

type status = Delivered | Bounced | Dead

type msg =
  | Offer of Request.t
  | Probe of Request.t
  | Cancel of { q : int; old_res : int; old_t : int }
  | Rival of Request.t
  | Swap of { r : int; q : Request.t }
  | Rehome of { r : Request.t; res : int }

type fabric = {
  exchange : msg Net.message list -> (msg Net.message * status) list;
  comm_rounds : unit -> int;
  accepted : res:int -> slot:int -> Request.t -> unit;
  rejected_full : res:int -> Request.t -> unit;
  probe_acked : res:int -> slot:int -> Request.t -> unit;
  rival_granted : res:int -> Request.t -> unit;
  cancel_landed : res:int -> slot:int -> unit;
  swap_applied : res:int -> slot:int -> Request.t -> unit;
}

let fabric ~exchange ~comm_rounds =
  {
    exchange;
    comm_rounds;
    accepted = (fun ~res:_ ~slot:_ _ -> ());
    rejected_full = (fun ~res:_ _ -> ());
    probe_acked = (fun ~res:_ ~slot:_ _ -> ());
    rival_granted = (fun ~res:_ _ -> ());
    cancel_landed = (fun ~res:_ ~slot:_ -> ());
    swap_applied = (fun ~res:_ ~slot:_ _ -> ());
  }

let message ?(tagged = false) ~sender ~dst ~key payload =
  { Net.sender; dst; deadline_key = key; tagged; payload }

(* the EDF processing order of a resource's delivered messages *)
let by_deadline (a : _ Net.message) (b : _ Net.message) =
  if a.Net.deadline_key <> b.Net.deadline_key then
    compare a.Net.deadline_key b.Net.deadline_key
  else compare a.Net.sender b.Net.sender

let other_alternative (r : Request.t) res =
  if r.Request.alternatives.(0) = res then r.Request.alternatives.(1)
  else r.Request.alternatives.(0)

(* A resource accepts a request into its earliest free slot inside the
   request's window (a maximal acceptance rule, Slots.try_accept).
   Returns the slot. *)
let try_accept st ~round res (r : Request.t) =
  match
    Slots.try_accept st.slots ~round ~res ~arrival:r.Request.arrival
      ~last:(Request.last_round r) r.Request.id
  with
  | None -> None
  | Some t ->
    Hashtbl.replace st.assigned r.Request.id (res, t);
    Some t

let expire st ~round =
  let dead =
    Hashtbl.fold
      (fun id r acc -> if Request.last_round r < round then id :: acc else acc)
      st.active []
  in
  List.iter
    (fun id ->
       Hashtbl.remove st.active id;
       (match Hashtbl.find_opt st.assigned id with
        | Some (res, t) -> Slots.free st.slots ~res ~round:t
        | None -> ());
       Hashtbl.remove st.assigned id)
    dead;
  List.sort compare dead

let metered st f body =
  st.sched_rounds <- st.sched_rounds + 1;
  let cr0 = f.comm_rounds () in
  let result = body () in
  st.max_cr <- max st.max_cr (f.comm_rounds () - cr0);
  result

(* ------------------------------------------------------------------ *)
(* A_local_fix (and A_local_eager's phase 1) *)

(* Run one fix-style communication round: [senders] try alternative
   index [alt]; returns the requests that remain unscheduled (bounced or
   dead in the fabric, or rejected by a full resource). *)
let offer_round st f ~round ~alt senders =
  let has_alt (r : Request.t) = alt < Array.length r.Request.alternatives in
  let results =
    f.exchange
      (List.filter_map
         (fun (r : Request.t) ->
            if has_alt r then
              Some
                (message ~sender:r.Request.id
                   ~dst:r.Request.alternatives.(alt)
                   ~key:(Request.last_round r) (Offer r))
            else None)
         senders)
  in
  (* requests with no message for this alternative stay failed *)
  let skipped = List.filter (fun r -> not (has_alt r)) senders in
  let failed =
    List.filter_map
      (fun (m, s) ->
         match (s, m.Net.payload) with
         | (Bounced | Dead), Offer r -> Some r
         | _ -> None)
      results
  in
  (* each resource processes its delivered requests in EDF order *)
  let rejected =
    List.filter_map (fun (m, s) -> if s = Delivered then Some m else None)
      results
    |> List.sort by_deadline
    |> List.filter_map (fun m ->
        match m.Net.payload with
        | Offer r ->
          let res = m.Net.dst in
          (match try_accept st ~round res r with
           | Some slot ->
             f.accepted ~res ~slot r;
             None
           | None ->
             f.rejected_full ~res r;
             Some r)
        | _ -> None)
  in
  skipped @ failed @ rejected

let fix_round st f ~round newcomers =
  let failed = offer_round st f ~round ~alt:0 newcomers in
  ignore (offer_round st f ~round ~alt:1 failed)

(* ------------------------------------------------------------------ *)
(* A_local_eager *)

type move = Request.t * int * int * int (* r, old res, old t, new res *)

(* Phase 2, selection round: requests scheduled in the future ask
   their other resource for its free current slot; each such resource
   acknowledges one mover.  Returns the accepted moves; the
   cancellation round that releases the old slots is built by the
   caller (so the compact variant can merge it with phase 3). *)
let eager_phase2_select st f ~round : move list =
  let movers =
    Hashtbl.fold
      (fun id (res, t) acc ->
         if t > round then
           match Hashtbl.find_opt st.active id with
           | Some r when Array.length r.Request.alternatives >= 2 ->
             (r, res, t, other_alternative r res) :: acc
           | Some _ | None -> acc
         else acc)
      st.assigned []
  in
  let results =
    f.exchange
      (List.map
         (fun ((r : Request.t), _res, _t, other) ->
            message ~sender:r.Request.id ~dst:other
              ~key:(Request.last_round r) (Probe r))
         movers)
  in
  (* each resource with a free current slot acknowledges one mover *)
  let chosen = Hashtbl.create 16 in
  List.iter
    (fun (m, s) ->
       if s = Delivered && not (Slots.mem st.slots ~res:m.Net.dst ~round) then
         match Hashtbl.find_opt chosen m.Net.dst with
         | Some prev when prev <= m.Net.sender -> ()
         | Some _ | None -> Hashtbl.replace chosen m.Net.dst m.Net.sender)
    results;
  let moves =
    List.filter
      (fun ((r : Request.t), _res, _t, other) ->
         Hashtbl.find_opt chosen other = Some r.Request.id)
      movers
  in
  List.iter (fun (r, _, _, other) -> f.probe_acked ~res:other ~slot:round r)
    moves;
  moves

(* cancellations release an already-acknowledged move: give them the
   highest LDF rank so the capacity cut can never break protocol state
   (at most d-1 target one resource, below every capacity we use) *)
let cancel_msgs (moves : move list) =
  List.map
    (fun ((r : Request.t), res, t, _other) ->
       message ~sender:r.Request.id ~dst:res ~key:max_int
         (Cancel { q = r.Request.id; old_res = res; old_t = t }))
    moves

(* Apply the cancellations and tagged swap notifications of one
   exchange.  A cancel that lands commits its move; a [Dead] one also
   commits it (the old slot's host lost that state anyway); a [Bounced]
   one aborts it: the mover keeps its old slot and the acknowledging
   resource idles.  A swap is tagged, so it is never [Bounced]; a
   [Dead] one still hands the slot over in the decision state. *)
let settle st f ~round ~swapped ~moves results =
  List.iter
    (fun (m, s) ->
       match m.Net.payload with
       | Swap { r = _; q } ->
         assert (s <> Bounced);
         let res = m.Net.dst in
         Slots.set st.slots ~res ~round q.Request.id;
         Hashtbl.replace st.assigned q.Request.id (res, round);
         swapped.(res) <- true;
         if s = Delivered then f.swap_applied ~res ~slot:round q
       | Cancel { q; old_res; old_t } when s <> Bounced ->
         (match Hashtbl.find_opt moves q with
          | Some ((r : Request.t), res, t, other) ->
            Slots.free st.slots ~res ~round:t;
            Slots.set st.slots ~res:other ~round r.Request.id;
            Hashtbl.replace st.assigned r.Request.id (other, round);
            Hashtbl.remove moves q
          | None -> ());
         if s = Delivered then f.cancel_landed ~res:old_res ~slot:old_t
       | Cancel _ | Offer _ | Probe _ | Rival _ | Rehome _ -> ())
    results

(* One communication round carrying [carry] (the previous attempt's
   tagged swap notifications, or the compact variant's cancellations)
   together with this attempt's rival requests.  Returns the grants:
   resource -> (q, current occupant r, r's other resource). *)
let rival_round st f ~round ~swapped ~moves ~carry ~alt pending =
  let rivals =
    List.filter_map
      (fun (q : Request.t) ->
         if alt >= Array.length q.Request.alternatives then None
         else
           Some
             (message ~sender:q.Request.id ~dst:q.Request.alternatives.(alt)
                ~key:(Request.last_round q) (Rival q)))
      pending
  in
  let results = f.exchange (carry @ rivals) in
  (* tagged messages are always delivered, and cancellations outrank
     everything in the LDF order; apply both before computing grants so
     the check sees the final slot occupancy *)
  settle st f ~round ~swapped ~moves results;
  let grants = Hashtbl.create 16 in
  List.iter
    (fun (m, s) ->
       match m.Net.payload with
       | Rival q ->
         let res = m.Net.dst in
         if s = Delivered && (not swapped.(res)) && not (Hashtbl.mem grants res)
         then (
           match Slots.find st.slots ~res ~round with
           | None -> ()
           | Some r_id ->
             (match Hashtbl.find_opt st.active r_id with
              | Some r when Array.length r.Request.alternatives >= 2 ->
                f.rival_granted ~res q;
                Hashtbl.replace grants res (q, r, other_alternative r res)
              | Some _ | None -> ()))
       | Offer _ | Probe _ | Cancel _ | Swap _ | Rehome _ -> ())
    results;
  grants

(* The rehome communication round: each granted rival forwards the slot
   occupant to its other resource, which accepts into a free slot of the
   occupant's window.  Returns the tagged swap notifications of the
   successful swaps, sent one communication round later. *)
let rehome_round st f ~round grants =
  let msgs =
    Hashtbl.fold
      (fun res ((q : Request.t), (r : Request.t), s_r) acc ->
         message ~sender:q.Request.id ~dst:s_r ~key:(Request.last_round r)
           (Rehome { r; res })
         :: acc)
      grants []
  in
  List.sort (fun (a, _) (b, _) -> by_deadline a b) (f.exchange msgs)
  |> List.filter_map (fun (m, s) ->
      match m.Net.payload with
      | Rehome { r; res }
        when s = Delivered
             && Slots.find st.slots ~res ~round = Some r.Request.id ->
        let dst = m.Net.dst in
        (match try_accept st ~round dst r with
         | Some slot ->
           f.accepted ~res:dst ~slot r;
           (* r re-homed; its old slot is freed pending the tagged swap
              notification *)
           Slots.free st.slots ~res ~round;
           let q, _, _ = Hashtbl.find grants res in
           Some
             (message ~tagged:true ~sender:q.Request.id ~dst:res
                ~key:(Request.last_round q)
                (Swap { r = r.Request.id; q }))
         | None -> None)
      | _ -> None)

let eager_round st f ~compact ~round =
  let unscheduled () =
    Hashtbl.fold
      (fun id r acc ->
         if Hashtbl.mem st.assigned id then acc else r :: acc)
      st.active []
    |> List.sort (fun (a : Request.t) b -> compare a.Request.id b.Request.id)
  in
  (* phase 1 (2 comm rounds): the fix protocol over all unscheduled
     live requests *)
  fix_round st f ~round (unscheduled ());
  (* phase 2: pull future-scheduled requests into free current slots at
     their other resource.  One communication round selects the movers;
     the cancellation round is either dedicated (paper default, 9 comm
     rounds total) or -- in the compact variant with capacity 2d-2 --
     merged into phase 3's first round (8 total) *)
  let selected = eager_phase2_select st f ~round in
  let moves = Hashtbl.create 16 in
  List.iter
    (fun (((r : Request.t), _, _, _) as mv) ->
       Hashtbl.replace moves r.Request.id mv)
    selected;
  let swapped = Array.make st.n false in
  let cancels = cancel_msgs selected in
  let carry =
    if compact then cancels
    else begin
      settle st f ~round ~swapped ~moves (f.exchange cancels);
      []
    end
  in
  (* phase 3 (5 comm rounds): two swap attempts; attempt 1's tagged
     notifications share a round with attempt 2's rival requests *)
  let grants1 =
    rival_round st f ~round ~swapped ~moves ~carry ~alt:0 (unscheduled ())
  in
  let swaps1 = rehome_round st f ~round grants1 in
  let won1 = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace won1 m.Net.sender ()) swaps1;
  let pending2 =
    List.filter
      (fun (q : Request.t) -> not (Hashtbl.mem won1 q.Request.id))
      (unscheduled ())
  in
  let grants2 =
    rival_round st f ~round ~swapped ~moves ~carry:swaps1 ~alt:1 pending2
  in
  let swaps2 = rehome_round st f ~round grants2 in
  (* final communication round: attempt 2's tagged notifications *)
  settle st f ~round ~swapped ~moves (f.exchange swaps2)

(* ------------------------------------------------------------------ *)
(* the simulator fabric and the strategy factories *)

let collect_serves st ~round =
  let serves = ref [] in
  for res = 0 to st.n - 1 do
    match Slots.take st.slots ~res ~round with
    | None -> ()
    | Some id ->
      Hashtbl.remove st.assigned id;
      Hashtbl.remove st.active id;
      serves := { Strategy.request = id; resource = res } :: !serves
  done;
  List.rev !serves

(* Distnet.Net as a fabric: a bounce (capacity or injected loss) is the
   only failure; nothing is ever [Dead]. *)
let net_fabric net =
  fabric
    ~exchange:(fun msgs ->
        List.map
          (fun (m, ok) -> (m, if ok then Delivered else Bounced))
          (Net.exchange net msgs))
    ~comm_rounds:(fun () -> Net.comm_rounds net)

let make_factory ~name ~capacity_of ~round_of ?(loss = 0.0) ?priority
    ?metrics () =
  let latest = ref None in
  let factory : Strategy.factory =
   fun ~n ~d ->
    let net =
      Net.create ~n ~capacity:(capacity_of d) ?priority ~loss
        ~loss_rng:(Prelude.Rng.create ~seed:1) ?metrics ()
    in
    let st = create_state ~n in
    let f = net_fabric net in
    latest := Some (st, net);
    let step ~round ~arrivals =
      metered st f (fun () ->
          ignore (expire st ~round);
          Array.iter
            (fun (r : Request.t) -> Hashtbl.replace st.active r.Request.id r)
            arrivals;
          round_of st f ~round arrivals);
      collect_serves st ~round
    in
    { Strategy.name; step }
  in
  (factory, latest)

let stats_fn latest name () =
  match !latest with
  | Some (st, net) ->
    {
      scheduling_rounds = st.sched_rounds;
      comm_rounds_total = Net.comm_rounds net;
      comm_rounds_max = st.max_cr;
      messages = Net.messages_sent net;
      bounced = Net.messages_bounced net;
    }
  | None -> invalid_arg (name ^ ": no run yet")

let fix_with_stats ?loss ?priority ?metrics () =
  let factory, latest =
    make_factory ~name:"A_local_fix" ~capacity_of:(fun d -> d)
      ~round_of:(fun st f ~round arrivals ->
          fix_round st f ~round (Array.to_list arrivals))
      ?loss ?priority ?metrics ()
  in
  (factory, stats_fn latest "Local.fix_with_stats")

let eager_with_stats ?(compact = false) ?loss ?priority ?metrics () =
  let name = if compact then "A_local_eager_compact" else "A_local_eager" in
  let capacity_of d = if compact then max 1 ((2 * d) - 2) else d in
  let factory, latest =
    make_factory ~name ~capacity_of
      ~round_of:(fun st f ~round _arrivals -> eager_round st f ~compact ~round)
      ?loss ?priority ?metrics ()
  in
  (factory, stats_fn latest "Local.eager_with_stats")

let fix ?loss ?priority ?metrics () =
  fst (fix_with_stats ?loss ?priority ?metrics ())

let eager ?compact ?loss ?priority ?metrics () =
  fst (eager_with_stats ?compact ?loss ?priority ?metrics ())
