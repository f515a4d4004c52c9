(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (splitmix64).  Every randomised
    component of the library takes an explicit [t] so that experiments and
    tests are reproducible from a single integer seed; the global [Random]
    state of the standard library is never used. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to
    give sub-components their own generators without sharing state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val distinct : k:int -> (unit -> 'a) -> 'a list
(** [distinct ~k pick] is the first [k] distinct values [pick] returns,
    in draw order; a repeat is dropped and drawn again.  [pick] must be
    able to return [k] distinct values, or this does not terminate. *)

val poisson : t -> lambda:float -> int
(** Poisson-distributed count with the given mean (Knuth's product
    method; intended for [lambda] up to a few hundred). *)

val geometric : t -> p:float -> int
(** [geometric t ~p] is the number of failures before the first success of
    a Bernoulli(p) trial, for [0 < p <= 1]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [\[0, n)] from a Zipf distribution
    with exponent [s] (by inversion on the precomputed CDF; intended for
    modest [n], it recomputes the normaliser per call only when [n] or [s]
    changes). *)
