(** The paper's local (distributed) strategies (Sec. 3.2).

    One message protocol, written once, runs over two fabrics.  The
    protocol rounds below take a {!fabric}: an [exchange] that carries
    one communication round of request-to-resource messages under the
    capacity-[d] LDF mailbox model and reports each message as
    {!Delivered}, {!Bounced} or {!Dead}, plus event callbacks fired at
    the points a live deployment materialises a decision.  {!fix} and
    {!eager} run the protocol over {!Distnet.Net} (no callbacks, no
    [Dead]); [Cluster.Session] runs the same rounds over rendered wire
    bytes and node replicas.  Decisions are taken only from the
    decision {!state} and the messages the fabric returns, i.e. from
    information a resource or request legitimately holds.

    - {!fix} ([A_local_fix], Theorem 3.7, 2 communication rounds,
      competitive ratio exactly 2): new requests try their first
      alternative; each resource accepts a maximal set into its free
      slots; failures retry their second alternative once.  Assignments
      are final.

    - {!eager} ([A_local_eager], Theorem 3.8, at most 9 communication
      rounds, competitive ratio at most 5/3): phase 1 re-runs the fix
      protocol over {e all} unscheduled live requests; phase 2 lets
      requests scheduled in the future move onto a free current slot at
      their other resource; phase 3 lets a still-unscheduled request
      [q] rescue itself by re-homing the request [r] occupying its
      alternative's current slot onto [r]'s other resource and taking the
      freed slot, protected by a high-priority tag — tried at [q]'s first
      and then second alternative, with the retry overlapping the first
      attempt's final round. *)

type stats = {
  scheduling_rounds : int;   (** engine rounds stepped *)
  comm_rounds_total : int;
  comm_rounds_max : int;     (** max communication rounds in one engine round *)
  messages : int;
  bounced : int;
}

val fix : ?loss:float -> ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit -> Sched.Strategy.factory
(** [priority] breaks the network's LDF ties (the adversarial knob of
    Theorem 3.7's lower bound).  [loss] (default 0) injects message
    loss into the network (see {!Distnet.Net.create}); the protocol
    treats drops as bounces and stays consistent, it just serves
    less.  [metrics] is handed to the underlying {!Distnet.Net}, so
    the network's [net.*] counters land in the caller's registry (the
    ambient one when omitted). *)

val eager : ?compact:bool -> ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit -> Sched.Strategy.factory
(** [compact] (default false) applies the paper's remark after the
    protocol description: raising the mailbox capacity to [2d - 2] lets
    phase 2's cancellation round travel together with phase 3's first
    rival round, saving one communication round (at most 8 per
    scheduling round instead of 9). *)

val fix_with_stats : ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit ->
  Sched.Strategy.factory * (unit -> stats)
(** As {!fix}, plus a live accessor for the traffic meters of the last
    created strategy instance. *)

val eager_with_stats : ?compact:bool -> ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit ->
  Sched.Strategy.factory * (unit -> stats)

(** {1 The protocol over any fabric} *)

type state = {
  n : int;                                (** resources *)
  slots : int Slots.t;                    (** (resource, round) -> id *)
  assigned : (int, int * int) Hashtbl.t;  (** id -> (resource, round) *)
  active : (int, Sched.Request.t) Hashtbl.t;
      (** admitted, not yet served or expired *)
  mutable sched_rounds : int;             (** rounds run under {!metered} *)
  mutable max_cr : int;  (** max communication rounds in one of them *)
}
(** The decision state: which request holds which slot.  A caller
    admits a request by adding it to [active]. *)

val create_state : n:int -> state

type status =
  | Delivered
  | Bounced  (** lost the LDF capacity contest (or was lost in transit) *)
  | Dead     (** the destination's host is down; never contested capacity *)

(** Payloads of the protocol's request-to-resource messages, one per
    communication-round kind. *)
type msg =
  | Offer of Sched.Request.t     (** fix offer (eager phase 1) *)
  | Probe of Sched.Request.t     (** phase 2: mover asks for a current slot *)
  | Cancel of { q : int; old_res : int; old_t : int }
      (** phase 2: release acknowledged mover [q]'s old slot *)
  | Rival of Sched.Request.t     (** phase 3: swap solicitation *)
  | Swap of { r : int; q : Sched.Request.t }
      (** phase 3, tagged: the current slot held by [r] now belongs to [q] *)
  | Rehome of { r : Sched.Request.t; res : int }
      (** phase 3: forward occupant [r] of [res]'s current slot to its
          other resource *)

type fabric = {
  exchange :
    msg Distnet.Net.message list -> (msg Distnet.Net.message * status) list;
      (** one communication round, each message paired with its fate;
          same ordering and tie-break contract as
          {!Distnet.Net.exchange}.  The protocol reads only the returned
          messages. *)
  comm_rounds : unit -> int;  (** communication rounds so far *)
  accepted : res:int -> slot:int -> Sched.Request.t -> unit;
      (** an offer or rehome landed in [(res, slot)] *)
  rejected_full : res:int -> Sched.Request.t -> unit;
      (** a delivered offer found no free slot in its window *)
  probe_acked : res:int -> slot:int -> Sched.Request.t -> unit;
      (** a phase-2 mover was granted [(res, slot)]; the move commits
          when its cancel is not [Bounced] *)
  rival_granted : res:int -> Sched.Request.t -> unit;
      (** a delivered rival may take [res]'s current slot *)
  cancel_landed : res:int -> slot:int -> unit;
      (** a [Delivered] cancel released [(res, slot)] *)
  swap_applied : res:int -> slot:int -> Sched.Request.t -> unit;
      (** a [Delivered] swap handed [(res, slot)] to the request *)
}
(** A message fabric.  The status contract: a [Bounced] cancel aborts
    its move (the mover keeps its old slot) while a [Dead] one commits
    it; a swap is tagged, never [Bounced], and a [Dead] one still
    updates the decision state (without [swap_applied]); offers,
    probes, rival grants and rehomes need [Delivered]. *)

val fabric :
  exchange:
    (msg Distnet.Net.message list -> (msg Distnet.Net.message * status) list) ->
  comm_rounds:(unit -> int) -> fabric
(** A fabric whose event callbacks do nothing (the simulator's). *)

val by_deadline :
  'a Distnet.Net.message -> 'a Distnet.Net.message -> int
(** The order a resource processes its delivered messages in: earlier
    deadline key first, then lower sender. *)

val try_accept : state -> round:int -> int -> Sched.Request.t -> int option
(** [try_accept st ~round res r]: the maximal acceptance rule — [res]
    takes [r] into its earliest free slot of [r]'s window from [round]
    on and records the assignment; returns the slot. *)

val expire : state -> round:int -> int list
(** Drop every active request whose window closed before [round],
    freeing its slot; returns their ids, ascending. *)

val metered : state -> fabric -> (unit -> 'a) -> 'a
(** Run one scheduling round's protocol traffic: counts the round and
    updates [max_cr] from the fabric's communication-round meter. *)

val fix_round : state -> fabric -> round:int -> Sched.Request.t list -> unit
(** [A_local_fix]'s two offer rounds for the given newcomers. *)

val eager_round : state -> fabric -> compact:bool -> round:int -> unit
(** [A_local_eager]'s three phases over every unscheduled active
    request; [compact] merges the cancellation round into phase 3's
    first round. *)
