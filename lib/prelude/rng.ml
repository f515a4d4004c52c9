(* Splitmix64 (Steele, Lea, Flood: "Fast splittable pseudorandom number
   generators", OOPSLA 2014).  One 64-bit word of state advanced by the
   golden-gamma; finalised by a variant of Murmur3's mixer. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

(* Rejection sampling on the top bits keeps the distribution exactly
   uniform for any positive bound. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask *)
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (bound - 1)))
  else begin
    let b = Int64.of_int bound in
    let rec draw () =
      let raw = Int64.shift_right_logical (bits64 t) 1 in
      let v = Int64.rem raw b in
      (* reject the final partial block to avoid modulo bias *)
      if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int b) 1L
      then draw ()
      else Int64.to_int v
    in
    draw ()
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits *)
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let distinct ~k pick =
  let rec go acc len =
    if len = k then List.rev acc
    else begin
      let x = pick () in
      if List.mem x acc then go acc len else go (x :: acc) (len + 1)
    end
  in
  go [] 0

let poisson t ~lambda =
  if not (lambda >= 0.) then invalid_arg "Rng.poisson: negative lambda";
  (* split large means so the running product stays away from underflow *)
  let rec draw lambda acc =
    if lambda > 30.0 then
      draw (lambda -. 30.0) (acc + draw_small 30.0)
    else acc + draw_small lambda
  and draw_small lambda =
    let limit = exp (-.lambda) in
    let rec go k p =
      let p = p *. float t 1.0 in
      if p <= limit then k else go (k + 1) p
    in
    go 0 1.0
  in
  draw lambda 0

let geometric t ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p out of range";
  if p >= 1. then 0
  else begin
    let u = float t 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1. -. p)))
  end

(* Zipf sampling by inversion; the CDF is cached across calls with the same
   (n, s) since workload generators draw many samples from one law.  The
   cache is shared process state, so it is mutex-protected: generators may
   run on several domains (see Prelude.Parmap). *)
let zipf_cache : (int * float, float array) Hashtbl.t = Hashtbl.create 8
let zipf_cache_lock = Mutex.create ()

let zipf_cdf n s =
  Mutex.lock zipf_cache_lock;
  let cached = Hashtbl.find_opt zipf_cache (n, s) in
  Mutex.unlock zipf_cache_lock;
  match cached with
  | Some cdf -> cdf
  | None ->
    let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (w.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    Mutex.lock zipf_cache_lock;
    Hashtbl.replace zipf_cache (n, s) cdf;
    Mutex.unlock zipf_cache_lock;
    cdf

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  let cdf = zipf_cdf n s in
  let u = float t 1.0 in
  (* binary search for the first index with cdf.(i) >= u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)
