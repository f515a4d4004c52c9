(** A resource-side slot table: one occupant per (resource, round).

    Carries the maximal acceptance rule the paper's local strategies
    use (a resource accepts a request into the {e earliest} free slot
    inside the request's window).  One implementation serves both the
    protocol's decision state ({!Local.state}, simulated or live) and
    the live cluster's per-node replicas, so simulation and live
    serving cannot disagree on the accept rule. *)

type 'a t

val create : unit -> 'a t
val find : 'a t -> res:int -> round:int -> 'a option
val mem : 'a t -> res:int -> round:int -> bool
val set : 'a t -> res:int -> round:int -> 'a -> unit
val free : 'a t -> res:int -> round:int -> unit

val take : 'a t -> res:int -> round:int -> 'a option
(** Remove and return the occupant, if any. *)

val try_accept :
  'a t -> round:int -> res:int -> arrival:int -> last:int -> 'a -> int option
(** Accept [v] into the earliest free slot of [res] within
    [max round arrival .. last]; returns the slot round, or [None] when
    every slot of the window is taken. *)

val fold : 'a t -> (res:int -> round:int -> 'a -> 'b -> 'b) -> 'b -> 'b
val clear : 'a t -> unit
