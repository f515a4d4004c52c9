(** Bounded single-producer/single-consumer FIFO queues for the serve
    data plane, backed by a lock-free ring.

    The I/O domain pushes admitted requests into a shard's inbox and
    each shard pushes responses into its own outbox: exactly one domain
    ever pushes into a queue and exactly one (possibly different)
    domain ever drains it.  Capacity is a hard admission-control bound:
    {!try_push} / {!push_slice} refuse instead of blocking or dropping,
    so the caller can send an explicit reject or retry with
    backpressure.  The ring is allocated once at full capacity and
    reused in place — steady-state traffic through a channel allocates
    nothing ({!drain_into} copies into a caller-owned reusable buffer
    with at most two blits). *)

type 'a t

val max_capacity : int
(** [65536]: the largest capacity {!create_spsc} accepts.  The ring is
    allocated eagerly, so the bound keeps a mistyped capacity from
    allocating an arbitrarily large array. *)

val create_spsc : capacity:int -> dummy:'a -> 'a t
(** An empty queue holding at most [capacity] elements, its ring
    seeded with [dummy].
    @raise Invalid_argument unless [1 <= capacity <= max_capacity]. *)

val try_push : 'a t -> 'a -> bool
(** Append; [false] iff the queue is at capacity.  Producer only. *)

val push_slice : 'a t -> 'a array -> off:int -> len:int -> int
(** Append [src.(off .. off+len-1)] in order with one publication;
    returns how many were accepted (the prefix that fit under the
    capacity — the caller handles the rejected suffix).  Producer only.
    @raise Invalid_argument on a bad slice. *)

val drain_into : 'a t -> 'a array ref -> int
(** Remove everything, oldest first, into [!dst] (grown geometrically
    when too small, reused otherwise) and return the count.  Cells of
    [!dst] beyond the count are unspecified.  Non-blocking.  Consumer
    only. *)

val length : 'a t -> int
(** O(1).  Exact for the owning side; the other side may see a stale,
    smaller value. *)
