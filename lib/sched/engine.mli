(** The synchronous round engine.

    Drives a strategy exactly as Sec. 1.2 of the paper prescribes: each
    round, new requests are revealed, the strategy decides, one request
    per resource is served, and expiring windows close.  The engine owns
    all validity checking, so a buggy strategy cannot silently
    overcount.  There is one engine, {!Live}, and two finite drivers
    over it, {!run} and {!run_adaptive}. *)

exception Protocol_error of string
(** A strategy returned an illegal service: a request never admitted
    ("unknown request") or whose window has closed ("outside its
    window"), a resource not among its alternatives, or two services on
    one resource in the same round. *)

val run : ?metrics:Obs.Metrics.t -> Instance.t -> Strategy.factory -> Outcome.t
(** Feed the instance's arrivals to a fresh {!Live}, round by round,
    until every window has closed.  Services of an already-served
    request are legal but counted as [wasted] (the paper's EDF
    duplicates); everything else illegal raises {!Protocol_error}.

    [metrics] (or, when omitted, the ambient registry of
    {!Obs.Metrics.set_ambient}) receives per-round counters
    [engine.rounds], [engine.arrivals], [engine.served],
    [engine.wasted] and histograms [engine.step_us] (wall-clock latency
    of each strategy step, microseconds) and [engine.served_per_round].
    With neither set, the engine records nothing. *)

val run_all : Instance.t -> Strategy.factory list -> Outcome.t list
(** [run] once per factory on the same instance. *)

type adaptive = round:int -> is_served:(int -> bool) -> Request.t list
(** An adaptive adversary: given the round and whether a request id has
    been served so far, it returns this round's arrivals (protos with
    [arrival = round] and a deadline of at most [d]; ids are assigned in
    emission order, so it can predict them by counting).  Used by the
    paper's Theorem 2.6, whose adversary blocks whichever colour group
    the algorithm left most unserved. *)

val run_adaptive :
  ?metrics:Obs.Metrics.t ->
  n:int -> d:int -> last_arrival_round:int -> adversary:adaptive ->
  Strategy.factory -> Outcome.t
(** {!run} against an adaptive adversary, consulted for rounds
    [0 .. last_arrival_round]; the engine then keeps stepping until
    every window has closed.  The realised instance is
    [(result).instance], so the offline optimum of exactly the
    adaptively-generated workload can be computed afterwards. *)

(** The round engine: requests are submitted between rounds and the
    caller decides when each round ticks (a serving shard: admit, tick,
    collect terminal outcomes).  The step that closes a request's window
    reports it [expired] (unless served) and forgets it, so memory is
    bounded by the open windows, not by how long the engine runs.  The
    outcome depends only on the strategy and the submissions between
    steps, so a replayed trace reproduces every decision exactly. *)
module Live : sig
  type outcome = {
    round : int;                (** the round just executed *)
    served : (int * int) list;
        (** (request id, resource) of first services, in service order *)
    expired : int list;
        (** ids whose window closed unserved in this round, ascending *)
  }

  type t

  val create :
    ?metrics:Obs.Metrics.t -> n:int -> d:int -> Strategy.factory -> t
  (** An engine over [n] resources with nominal deadline [d].  The
      strategy is instantiated once; [metrics] (or the ambient registry)
      receives the [engine.*] instrumentation described at {!run}.
      @raise Invalid_argument if [n < 1] or [d < 1]. *)

  val submit :
    t -> alternatives:int list -> deadline:int -> (int, string) result
  (** Admit a request arriving at the {e current} round; it becomes part
      of the next {!step}'s arrivals.  Returns the engine-assigned dense
      id.  [Error] (malformed alternatives, resource [>= n], deadline
      outside [1 .. d]) admits nothing. *)

  val step : t -> outcome
  (** Execute the current round: reveal the queued submissions to the
      strategy, validate and apply its services, close expiring windows,
      and advance the round counter.
      @raise Protocol_error on an illegal service. *)

  val round : t -> int
  (** The next round {!step} will execute (0 initially). *)

  val pending : t -> int
  (** Admitted requests with no terminal outcome yet. *)

  val submitted : t -> int
  (** Total requests ever admitted (also the next fresh id). *)

  val strategy_name : t -> string
end
