(** Stochastic workloads for the average-case study.

    The paper motivates two-choice scheduling with distributed data
    servers (video-on-demand, OLTP) and notes that adversarial analysis
    "may sometimes be unrealistically pessimistic"; these generators
    provide the matching average-case inputs: arrivals are Poisson with
    mean [load * n] per round and each request draws [alternatives]
    distinct resources from a popularity profile. *)

type profile =
  | Uniform
      (** all resources equally popular *)
  | Zipf of float
      (** resource ranks follow a Zipf law with the given exponent — the
          hot-spot pattern two-choice replication targets *)
  | Bursty
      (** on/off arrivals: for the first 30% of every 20 rounds the
          arrival rate is 2.5x the base rate, and the other rounds run
          at the reduced rate that keeps the mean load. *)

val make :
  rng:Prelude.Rng.t -> n:int -> d:int -> rounds:int -> load:float ->
  ?alternatives:int -> ?profile:profile -> unit -> Sched.Instance.t
(** A [rounds]-round instance over [n] resources with nominal deadline
    [d].  [load] is the mean number of arrivals per round divided by [n]
    (1.0 saturates the server).  [alternatives] defaults to 2; it must
    not exceed [n].
    @raise Invalid_argument on a bad parameter. *)

val make_mixed_deadlines :
  rng:Prelude.Rng.t -> n:int -> d:int -> rounds:int -> load:float ->
  ?alternatives:int -> unit -> Sched.Instance.t
(** Like {!make} (uniform profile) but each request's deadline is drawn
    uniformly from [1..d] — exercising the per-request-deadline
    extension the paper notes for the EDF observations. *)
