type t = {
  disks : int;
  items : int;
  copies : int;
  of_item : int array array;
}

let check ~disks ~items ~copies =
  if disks < 1 then invalid_arg "Placement: disks must be >= 1";
  if items < 1 then invalid_arg "Placement: items must be >= 1";
  if copies < 1 || copies > disks then
    invalid_arg "Placement: copies out of [1, disks]"

let random ~rng ~disks ~items ~copies =
  check ~disks ~items ~copies;
  let pick () = Prelude.Rng.int rng disks in
  let of_item =
    Array.init items (fun _ ->
        Array.of_list (Prelude.Rng.distinct ~k:copies pick))
  in
  { disks; items; copies; of_item }

(* Copy [j] of item [i] on disk [(i + j * shift) mod disks].  For
   [shift >= 1] with [copies * shift <= disks] the copies are distinct:
   two of them differ by [(j' - j) * shift], which lies in [(0, disks)]. *)
let rotated ~disks ~items ~copies ~shift =
  let of_item =
    Array.init items (fun i ->
        Array.init copies (fun j -> (i + (j * shift)) mod disks))
  in
  { disks; items; copies; of_item }

let partner ~disks ~items ~copies =
  check ~disks ~items ~copies;
  rotated ~disks ~items ~copies ~shift:1

let striped ~disks ~items ~copies =
  check ~disks ~items ~copies;
  rotated ~disks ~items ~copies ~shift:(disks / copies)

let disks_of t item =
  if item < 0 || item >= t.items then
    invalid_arg "Placement.disks_of: unknown item";
  Array.to_list t.of_item.(item)

let load_spread t ~popularity =
  let load = Array.make t.disks 0.0 in
  for i = 0 to t.items - 1 do
    let w = popularity i /. float_of_int t.copies in
    Array.iter (fun d -> load.(d) <- load.(d) +. w) t.of_item.(i)
  done;
  let total = Array.fold_left ( +. ) 0.0 load in
  if total <= 0.0 then 1.0
  else begin
    let mean = total /. float_of_int t.disks in
    let worst = Array.fold_left Float.max 0.0 load in
    worst /. mean
  end
