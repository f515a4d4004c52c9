module Request = Sched.Request
module Strategy = Sched.Strategy

type state = {
  n : int;
  bias : Strategy.bias;
  coordinate : bool;
  queues : (int, Request.t) Hashtbl.t array; (* per resource: id -> request *)
  served : (int, unit) Hashtbl.t; (* served ids whose window is open *)
  (* expiry buckets: last_round -> (resource, id) queue entries, so a
     round drops exactly the entries (and served marks) whose window
     just closed instead of scanning every queue (the kernel's
     O(expiring) scheme).  Entries already removed by a serve make the
     removal a no-op. *)
  expiry : (int, (int * int) list ref) Hashtbl.t;
  mutable drained : int; (* buckets below this round are gone *)
}

(* The request resource [res] serves at [round]: live, not yet served
   (when coordinating), earliest deadline; ties by higher bias, then
   lower id. *)
let pick st ~round res =
  let better (a : Request.t) (b : Request.t) =
    let da = Request.last_round a and db = Request.last_round b in
    if da <> db then da < db
    else begin
      let ba = st.bias ~request:a ~resource:res ~round
      and bb = st.bias ~request:b ~resource:res ~round in
      if ba <> bb then ba > bb else a.Request.id < b.Request.id
    end
  in
  Hashtbl.fold
    (fun _ r best ->
       if not (Request.is_live r ~round) then best
       else if st.coordinate && Hashtbl.mem st.served r.Request.id then best
       else
         match best with
         | None -> Some r
         | Some b -> if better r b then Some r else best)
    st.queues.(res) None

let step st ~round ~arrivals =
  (* drop entries whose window closed before [round]: O(expiring) *)
  for closed = st.drained to round - 1 do
    match Hashtbl.find_opt st.expiry closed with
    | None -> ()
    | Some entries ->
      List.iter
        (fun (res, id) ->
           Hashtbl.remove st.queues.(res) id;
           Hashtbl.remove st.served id)
        !entries;
      Hashtbl.remove st.expiry closed
  done;
  if round > st.drained then st.drained <- round;
  (* admit arrivals into each listed resource's queue *)
  Array.iter
    (fun (r : Request.t) ->
       let last = Request.last_round r in
       if last >= round then begin
         let bucket =
           match Hashtbl.find_opt st.expiry last with
           | Some b -> b
           | None ->
             let b = ref [] in
             Hashtbl.replace st.expiry last b;
             b
         in
         Array.iter
           (fun res ->
              Hashtbl.replace st.queues.(res) r.Request.id r;
              bucket := (res, r.Request.id) :: !bucket)
           r.Request.alternatives
       end)
    arrivals;
  let serves = ref [] in
  for res = 0 to st.n - 1 do
    match pick st ~round res with
    | None -> ()
    | Some r ->
      Hashtbl.remove st.queues.(res) r.Request.id;
      Hashtbl.replace st.served r.Request.id ();
      serves := { Strategy.request = r.Request.id; resource = res } :: !serves
  done;
  List.rev !serves

let make ~coordinate ~name ?(bias = Strategy.no_bias) () : Strategy.factory =
 fun ~n ~d:_ ->
  let st =
    {
      n;
      bias;
      coordinate;
      queues = Array.init n (fun _ -> Hashtbl.create 16);
      served = Hashtbl.create 64;
      expiry = Hashtbl.create 64;
      drained = 0;
    }
  in
  { Strategy.name = name; step = (fun ~round ~arrivals -> step st ~round ~arrivals) }

let independent ?bias () = make ~coordinate:false ~name:"EDF" ?bias ()
let coordinated ?bias () = make ~coordinate:true ~name:"EDF_coord" ?bias ()
