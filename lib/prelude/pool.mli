(** Flat Bigarray-backed pools: off-heap int/float storage for hot
    paths that must not allocate per request.  See DESIGN.md §4.13 for
    the lifetime rules. *)

(** Growable flat int scratch.  [ensure] then index; growth preserves
    contents, fresh cells are uninitialised. *)
module Iarr : sig
  type t

  val create : ?capacity:int -> unit -> t
  val capacity : t -> int
  val ensure : t -> int -> unit
  val get : t -> int -> int
  val set : t -> int -> int -> unit

  val uget : t -> int -> int
  (** Unchecked read — caller guarantees [i < capacity]. *)

  val uset : t -> int -> int -> unit
  (** Unchecked write — caller guarantees [i < capacity]. *)

  val fill : t -> pos:int -> len:int -> int -> unit
end

(** Slotted int arena with free-list recycling.  Each slot is [width]
    ints.  [free] threads the free list through field 0 of the slot, so
    freed slots lose field 0; double-free is undetected. *)
module Ints : sig
  type t

  val create : ?capacity:int -> width:int -> unit -> t
  val width : t -> int
  val live : t -> int
  val capacity : t -> int

  val alloc : t -> int
  (** Slot index; contents are whatever the previous tenant left. *)

  val free : t -> int -> unit
  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit

  val clear : t -> unit
  (** Forget all slots (no per-slot work). *)
end

(** Open-addressed int-keyed map with [width] ints of payload per
    entry.  Keys must be [>= 0].  Entry indices are stable only until
    the next {!Table.put}, which may rehash. *)
module Table : sig
  type t

  val create : ?capacity:int -> width:int -> unit -> t
  val count : t -> int
  val capacity : t -> int

  val find : t -> int -> int
  (** Entry index for the key, or [-1] if absent. *)

  val put : t -> int -> int
  (** Entry index for the key, inserting if absent.  On a fresh insert
      the payload is uninitialised — write it via {!setv}. *)

  val remove : t -> int -> bool
  val getv : t -> int -> int -> int
  val setv : t -> int -> int -> int -> unit
  val clear : t -> unit

  val iter : t -> (int -> int -> unit) -> unit
  (** [iter t f] calls [f key entry] for every live entry, in storage
      order (not insertion order). *)
end
