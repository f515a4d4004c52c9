(* Flat Bigarray-backed pools.

   Motivation: the hot paths (serve shards, the warm-start kernel, the
   live engine) used to thread per-request state through OCaml records,
   lists and hashtables — every request costs a handful of minor-heap
   allocations, and on worker domains the minor GC is a shared tax.
   Everything here lives off the OCaml heap in Bigarrays: ints only,
   indexed by integer slot, zero allocation per operation once the
   arena has grown to its working size.

   Lifetime rules (see DESIGN.md §4.13):
   - [Iarr] is growable flat scratch: no ownership, [ensure] then
     index. Grown storage preserves existing contents; fresh cells are
     uninitialised (use [fill] first if the algorithm reads before
     writing).
   - [Ints] is a slotted arena with free-list recycling: [alloc] hands
     out a slot of [width] ints, [free] recycles it. Freed slots reuse
     field 0 as the free-list link, so field 0 of a freed slot is
     clobbered. Double-free is not detected.
   - [Table] is an open-addressed int-keyed map with [width] ints of
     payload per entry. Keys must be >= 0 (negative keys are reserved
     for the empty/tombstone sentinels). Entry indices returned by
     [find]/[put] are stable only until the next [put] (which may
     rehash). *)

module A1 = Bigarray.Array1

type ints_ba = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let make_ints n : ints_ba = A1.create Bigarray.int Bigarray.c_layout n

(* Growable flat int scratch. *)
module Iarr = struct
  type t = { mutable data : ints_ba; mutable cap : int }

  let create ?(capacity = 16) () =
    let cap = max 1 capacity in
    { data = make_ints cap; cap }

  let capacity t = t.cap

  let ensure t n =
    if n > t.cap then begin
      let cap = ref (max 16 t.cap) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = make_ints !cap in
      A1.blit t.data (A1.sub data 0 t.cap);
      t.data <- data;
      t.cap <- !cap
    end

  let get t i = A1.get t.data i
  let set t i v = A1.set t.data i v
  let uget t i = A1.unsafe_get t.data i
  let uset t i v = A1.unsafe_set t.data i v

  let fill t ~pos ~len v =
    if len > 0 then A1.fill (A1.sub t.data pos len) v
end

(* Slotted int arena with free-list recycling. *)
module Ints = struct
  type t = {
    width : int;
    mutable data : ints_ba;
    mutable cap : int; (* in slots *)
    mutable next_fresh : int;
    mutable free_head : int; (* -1 = empty *)
    mutable live : int;
  }

  let create ?(capacity = 16) ~width () =
    if width < 1 then invalid_arg "Pool.Ints.create: width must be >= 1";
    let cap = max 1 capacity in
    {
      width;
      data = make_ints (cap * width);
      cap;
      next_fresh = 0;
      free_head = -1;
      live = 0;
    }

  let width t = t.width
  let live t = t.live
  let capacity t = t.cap

  let grow t =
    let cap = max 16 (t.cap * 2) in
    let data = make_ints (cap * t.width) in
    A1.blit t.data (A1.sub data 0 (t.cap * t.width));
    t.data <- data;
    t.cap <- cap

  let alloc t =
    t.live <- t.live + 1;
    if t.free_head >= 0 then begin
      let s = t.free_head in
      t.free_head <- A1.get t.data (s * t.width);
      s
    end
    else begin
      if t.next_fresh >= t.cap then grow t;
      let s = t.next_fresh in
      t.next_fresh <- s + 1;
      s
    end

  let free t s =
    A1.set t.data (s * t.width) t.free_head;
    t.free_head <- s;
    t.live <- t.live - 1

  let get t s j = A1.get t.data ((s * t.width) + j)
  let set t s j v = A1.set t.data ((s * t.width) + j) v

  let clear t =
    t.next_fresh <- 0;
    t.free_head <- -1;
    t.live <- 0
end

(* Open-addressed int-keyed map, linear probing, tombstones.
   Payload = [width] ints per entry, stored flat. *)
module Table = struct
  let empty_key = min_int
  let tomb_key = min_int + 1

  type t = {
    width : int;
    mutable keys : ints_ba;
    mutable vals : ints_ba;
    mutable cap : int; (* power of two *)
    mutable count : int; (* live entries *)
    mutable tombs : int;
  }

  let hash key =
    (* splitmix-style finalizer (constants truncated to native int),
       folded to non-negative *)
    let h = key * 0x9E3779B97F4A7C1 in
    let h = h lxor (h lsr 29) in
    let h = h * 0xBF58476D1CE4E5B in
    let h = h lxor (h lsr 32) in
    h land max_int

  let round_pow2 n =
    let c = ref 8 in
    while !c < n do
      c := !c * 2
    done;
    !c

  let create ?(capacity = 16) ~width () =
    if width < 1 then invalid_arg "Pool.Table.create: width must be >= 1";
    let cap = round_pow2 (max 8 capacity) in
    let keys = make_ints cap in
    A1.fill keys empty_key;
    { width; keys; vals = make_ints (cap * width); cap; count = 0; tombs = 0 }

  let count t = t.count
  let capacity t = t.cap

  (* Entry index for [key], or -1. *)
  let find t key =
    let mask = t.cap - 1 in
    let i = ref (hash key land mask) in
    let res = ref (-2) in
    while !res = -2 do
      let k = A1.get t.keys !i in
      if k = key then res := !i
      else if k = empty_key then res := -1
      else i := (!i + 1) land mask
    done;
    !res

  let rec rehash t cap =
    let old_keys = t.keys and old_vals = t.vals and old_cap = t.cap in
    t.keys <- make_ints cap;
    A1.fill t.keys empty_key;
    t.vals <- make_ints (cap * t.width);
    t.cap <- cap;
    t.count <- 0;
    t.tombs <- 0;
    for i = 0 to old_cap - 1 do
      let k = A1.get old_keys i in
      if k <> empty_key && k <> tomb_key then begin
        let e = put t k in
        for j = 0 to t.width - 1 do
          A1.set t.vals ((e * t.width) + j) (A1.get old_vals ((i * t.width) + j))
        done
      end
    done

  (* Entry index for [key], inserting if absent (payload uninitialised
     on fresh insert). *)
  and put t key =
    if key < 0 then invalid_arg "Pool.Table: keys must be >= 0";
    if (t.count + t.tombs + 1) * 4 > t.cap * 3 then
      rehash t (if t.count * 4 > t.cap then t.cap * 2 else t.cap);
    let mask = t.cap - 1 in
    let i = ref (hash key land mask) in
    let first_tomb = ref (-1) in
    let res = ref (-2) in
    while !res = -2 do
      let k = A1.get t.keys !i in
      if k = key then res := !i
      else if k = empty_key then begin
        let e = if !first_tomb >= 0 then !first_tomb else !i in
        if !first_tomb >= 0 then t.tombs <- t.tombs - 1;
        A1.set t.keys e key;
        t.count <- t.count + 1;
        res := e
      end
      else begin
        if k = tomb_key && !first_tomb < 0 then first_tomb := !i;
        i := (!i + 1) land mask
      end
    done;
    !res

  let remove t key =
    let e = find t key in
    if e >= 0 then begin
      A1.set t.keys e tomb_key;
      t.count <- t.count - 1;
      t.tombs <- t.tombs + 1;
      true
    end
    else false

  let getv t e j = A1.get t.vals ((e * t.width) + j)
  let setv t e j v = A1.set t.vals ((e * t.width) + j) v

  let clear t =
    A1.fill t.keys empty_key;
    t.count <- 0;
    t.tombs <- 0

  let iter t f =
    for i = 0 to t.cap - 1 do
      let k = A1.get t.keys i in
      if k <> empty_key && k <> tomb_key then f k i
    done
end
