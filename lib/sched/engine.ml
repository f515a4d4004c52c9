exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

type adaptive = round:int -> is_served:(int -> bool) -> Request.t list

(* ------------------------------------------------------------------ *)
(* Live: the one round engine.

   Requests are admitted between rounds and the caller decides when each
   round happens (a shard's tick, or a finite driver below).  Every
   admitted request reaches exactly one terminal state — served (the
   step that first serves it reports the id) or expired (reported by
   the step that closes its window).  A request can take part in no
   round after its window closes, so that step also forgets it: the
   engine's state is bounded by the open windows, not by uptime. *)

module Live = struct
  type outcome = {
    round : int;                (** the round just executed *)
    served : (int * int) list;
        (** (request id, resource) of first services, in service order *)
    expired : int list;         (** ids whose window closed unserved *)
  }

  (* Window state lives in a ring indexed by [id land (capacity - 1)]
     over the ids [oldest, next_id): every id below [oldest] is closed,
     and the span holds at most [d] rounds of arrivals, because the
     oldest open request closes within [d] rounds of its arrival. *)
  type t = {
    n : int;
    d : int;
    strategy : Strategy.t;
    metrics : Obs.Metrics.t option;
    mutable window : Request.t array;
    mutable status : Bytes.t;        (* 'o'pen, 's'erved or 'c'losed *)
    mutable oldest : int;
    expiry : int list array;         (* last_round mod d -> ids, descending *)
    resource_busy : int array;       (* resource -> last round served *)
    mutable wasted : int;
    mutable queued : Request.t list; (* reversed arrivals *)
    mutable next_id : int;
    mutable round : int;
    mutable live : int;              (* admitted, no terminal yet *)
  }

  let vacant = Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:1

  let create ?metrics ~n ~d factory =
    if n < 1 then invalid_arg "Engine.Live.create: n must be >= 1";
    if d < 1 then invalid_arg "Engine.Live.create: d must be >= 1";
    {
      n;
      d;
      strategy = factory ~n ~d;
      metrics = Obs.Metrics.resolve metrics;
      window = Array.make 64 vacant;
      status = Bytes.make 64 'c';
      oldest = 0;
      expiry = Array.make d [];
      resource_busy = Array.make n (-1);
      wasted = 0;
      queued = [];
      next_id = 0;
      round = 0;
      live = 0;
    }

  let round t = t.round
  let pending t = t.live
  let submitted t = t.next_id
  let strategy_name t = t.strategy.Strategy.name

  (* Admit a request already numbered [t.next_id], arriving at the
     current round with a deadline of at most [d]; [submit] validates,
     the finite drivers feed requests {!Instance.build} validated. *)
  let admit t (r : Request.t) =
    let id = t.next_id and cap = Array.length t.window in
    assert (r.Request.id = id && r.Request.arrival = t.round);
    if id - t.oldest = cap then begin
      let window = Array.make (2 * cap) vacant
      and status = Bytes.make (2 * cap) 'c' in
      for i = t.oldest to id - 1 do
        window.(i land ((2 * cap) - 1)) <- t.window.(i land (cap - 1));
        Bytes.set status (i land ((2 * cap) - 1))
          (Bytes.get t.status (i land (cap - 1)))
      done;
      t.window <- window;
      t.status <- status
    end;
    let slot = id land (Array.length t.window - 1) in
    t.window.(slot) <- r;
    Bytes.set t.status slot 'o';
    t.next_id <- id + 1;
    t.queued <- r :: t.queued;
    t.live <- t.live + 1;
    let k = Request.last_round r mod t.d in
    t.expiry.(k) <- id :: t.expiry.(k)

  let submit t ~alternatives ~deadline =
    if deadline > t.d then
      Error (Printf.sprintf "deadline %d exceeds the server's d=%d" deadline t.d)
    else if List.exists (fun a -> a >= t.n) alternatives then
      Error
        (Printf.sprintf "resource out of range (n=%d): %s" t.n
           (String.concat ","
              (List.map string_of_int
                 (List.filter (fun a -> a >= t.n) alternatives))))
    else
      match Request.make ~arrival:t.round ~alternatives ~deadline with
      | exception Invalid_argument m -> Error m
      | proto ->
        admit t (Request.with_id proto t.next_id);
        Ok (t.next_id - 1)

  (* Validate [services] against the model rules and apply them; returns
     the first services, in service order.  Every open request is live
     at the current round, so an id that is not open either closed its
     window or was never admitted. *)
  let apply t ~round services =
    let mask = Array.length t.window - 1 in
    List.fold_left
      (fun first { Strategy.request; resource } ->
         let slot = request land mask in
         if request < t.oldest || request >= t.next_id
            || Bytes.get t.status slot = 'c'
         then
           if request >= 0 && request < t.next_id then
             fail "round %d: request %d outside its window" round request
           else fail "round %d: unknown request %d" round request;
         if resource < 0 || resource >= t.n then
           fail "round %d: resource %d out of range" round resource;
         if not (Request.has_alternative t.window.(slot) resource) then
           fail "round %d: resource %d not an alternative of request %d"
             round resource request;
         if t.resource_busy.(resource) = round then
           fail "round %d: resource %d used twice" round resource;
         t.resource_busy.(resource) <- round;
         if Bytes.get t.status slot = 's' then begin
           t.wasted <- t.wasted + 1;
           first
         end
         else begin
           Bytes.set t.status slot 's';
           (request, resource) :: first
         end)
      [] services
    |> List.rev

  (* Close the windows ending at [round] and forget their requests;
     returns the unserved ids, ascending. *)
  let close t ~round =
    let k = round mod t.d and mask = Array.length t.window - 1 in
    let expired =
      List.fold_left
        (fun expired id ->
           let slot = id land mask in
           let served = Bytes.get t.status slot = 's' in
           Bytes.set t.status slot 'c';
           t.window.(slot) <- vacant;
           if served then expired else id :: expired)
        [] t.expiry.(k)
    in
    t.expiry.(k) <- [];
    while t.oldest < t.next_id && Bytes.get t.status (t.oldest land mask) = 'c'
    do
      t.oldest <- t.oldest + 1
    done;
    expired

  let step t =
    let round = t.round in
    let arrivals = Array.of_list (List.rev t.queued) in
    t.queued <- [];
    let decide () = t.strategy.Strategy.step ~round ~arrivals in
    let served =
      match t.metrics with
      | None -> apply t ~round (decide ())
      | Some m ->
        let wasted0 = t.wasted in
        let t0 = Obs.Span.start () in
        let services = decide () in
        Obs.Metrics.observe m "engine.step_us" (Obs.Span.elapsed t0 *. 1e6);
        let served = apply t ~round services in
        let k = List.length served in
        Obs.Metrics.incr m "engine.rounds";
        Obs.Metrics.incr ~by:(Array.length arrivals) m "engine.arrivals";
        Obs.Metrics.incr ~by:k m "engine.served";
        Obs.Metrics.incr ~by:(t.wasted - wasted0) m "engine.wasted";
        Obs.Metrics.observe m "engine.served_per_round" (float_of_int k);
        served
    in
    let expired = close t ~round in
    t.live <- t.live - List.length served - List.length expired;
    t.round <- round + 1;
    { round; served; expired }
end

(* ------------------------------------------------------------------ *)
(* The finite drivers: step a fresh [Live] over rounds [0, horizon),
   admitting [arrivals ~round ~is_served] before each step, and record
   each step's first services. *)

let drive ?metrics ~n ~d ~horizon ~arrivals factory =
  let live = Live.create ?metrics ~n ~d factory in
  let served_at = ref [||] in
  let per_round_served = Array.make (max horizon 1) 0 in
  let is_served id =
    id >= 0 && id < Array.length !served_at && !served_at.(id) <> None
  in
  for round = 0 to horizon - 1 do
    Array.iter (Live.admit live) (arrivals ~round ~is_served);
    let o = Live.step live in
    let len = Array.length !served_at in
    if len < live.Live.next_id then begin
      let grown = Array.make (max (2 * len) live.Live.next_id) None in
      Array.blit !served_at 0 grown 0 len;
      served_at := grown
    end;
    List.iter
      (fun (id, resource) -> !served_at.(id) <- Some (resource, round))
      o.Live.served;
    per_round_served.(round) <- List.length o.Live.served
  done;
  (live, Array.sub !served_at 0 live.Live.next_id, per_round_served)

let outcome inst (live : Live.t) served_at per_round_served =
  {
    Outcome.instance = inst;
    strategy_name = Live.strategy_name live;
    served_at;
    served = Array.fold_left ( + ) 0 per_round_served;
    wasted = live.Live.wasted;
    per_round_served;
  }

let run ?metrics inst factory =
  let live, served_at, per_round_served =
    drive ?metrics ~n:inst.Instance.n_resources ~d:inst.Instance.d
      ~horizon:inst.Instance.horizon
      ~arrivals:(fun ~round ~is_served:_ -> Instance.arrivals_at inst round)
      factory
  in
  outcome inst live served_at per_round_served

let run_all inst factories = List.map (run inst) factories

let run_adaptive ?metrics ~n ~d ~last_arrival_round ~adversary factory =
  if last_arrival_round < 0 then
    invalid_arg "Engine.run_adaptive: negative last_arrival_round";
  let emitted = ref [] (* reversed protos *) and next_id = ref 0 in
  let arrivals ~round ~is_served =
    if round > last_arrival_round then [||]
    else
      Array.of_list
        (List.map
           (fun (r : Request.t) ->
              if r.Request.arrival <> round || r.Request.deadline > d then
                invalid_arg
                  (Printf.sprintf
                     "Engine.run_adaptive: adversary emitted arrival %d, \
                      deadline %d at round %d (d=%d)"
                     r.Request.arrival r.Request.deadline round d);
              emitted := r :: !emitted;
              incr next_id;
              Request.with_id r (!next_id - 1))
           (adversary ~round ~is_served))
  in
  let live, served_at, per_round_served =
    drive ?metrics ~n ~d ~horizon:(last_arrival_round + d) ~arrivals factory
  in
  let inst = Instance.build ~n_resources:n ~d (List.rev !emitted) in
  outcome inst live served_at
    (Array.sub per_round_served 0 (max inst.Instance.horizon 1))
