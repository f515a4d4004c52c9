(** Replica placement: which disks hold the copies of each data item.

    The paper's application layer (Sec. 1): a distributed data server
    stores two copies of every data item on different disks ([Kor97]'s
    "random duplicated assignment"), and a request for an item may be
    served by either copy.  The placement policy decides the pairs — and
    it matters: structured placements correlate the alternatives of hot
    items, random placements decorrelate them.

    A placement maps item ids [0 .. items-1] to lists of [copies]
    distinct disks in [0 .. disks-1]. *)

type t = private {
  disks : int;
  items : int;
  copies : int;
  of_item : int array array; (** item -> its disks, length [copies] *)
}

val random : rng:Prelude.Rng.t -> disks:int -> items:int -> copies:int -> t
(** [Kor97]: each item's copies land on uniformly random distinct
    disks.
    @raise Invalid_argument if [copies > disks] or any count < 1. *)

val partner : disks:int -> items:int -> copies:int -> t
(** Structured mirroring: item [i]'s primary is disk [i mod disks] and
    copy [j] sits on disk [(i + j) mod disks] — chained declustering.
    Deterministic; adjacent disks share load. *)

val striped : disks:int -> items:int -> copies:int -> t
(** Primary [i mod disks]; copy [j] on the diametrically shifted disk
    [(i + j * (disks / copies)) mod disks] — mirrors half a rotation
    away, the classic RAID-10-ish layout. *)

val disks_of : t -> int -> int list
(** Alternatives of an item, primary first.
    @raise Invalid_argument on an unknown item. *)

val load_spread : t -> popularity:(int -> float) -> float
(** A placement-quality diagnostic: the max/mean ratio of expected disk
    load when item [i] is requested with weight [popularity i] and each
    request is split evenly across the item's copies.  1.0 is perfectly
    even. *)
