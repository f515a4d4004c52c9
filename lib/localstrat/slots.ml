(* The slot table a resource keeps under the local protocols: one
   occupant per (resource, round), with the maximal acceptance rule of
   Sec. 3.2 — a request is accepted into the earliest free slot of its
   window.  Shared by the protocol's decision state (Local.state, on
   both fabrics) and the live cluster's node replicas, so every path
   schedules with the same rule. *)

type 'a t = (int * int, 'a) Hashtbl.t

let create () = Hashtbl.create 128
let find t ~res ~round = Hashtbl.find_opt t (res, round)
let mem t ~res ~round = Hashtbl.mem t (res, round)
let set t ~res ~round v = Hashtbl.replace t (res, round) v
let free t ~res ~round = Hashtbl.remove t (res, round)

let take t ~res ~round =
  match Hashtbl.find_opt t (res, round) with
  | None -> None
  | Some v ->
    Hashtbl.remove t (res, round);
    Some v

let try_accept t ~round ~res ~arrival ~last v =
  let lo = max round arrival in
  let rec find r =
    if r > last then None
    else if Hashtbl.mem t (res, r) then find (r + 1)
    else Some r
  in
  match find lo with
  | None -> None
  | Some r ->
    Hashtbl.replace t (res, r) v;
    Some r

let fold t f acc = Hashtbl.fold (fun (res, round) v acc -> f ~res ~round v acc) t acc
let clear = Hashtbl.reset
