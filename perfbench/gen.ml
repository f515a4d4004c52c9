(* The lean load generator and the server process it drives.

   One thread, one unix-socket connection.  Wire lines are rendered
   before the timed window (Workload.make); here the generator only
   writes the pre-rendered bytes of each round and parses replies with
   a hand-rolled scanner into preallocated per-tag arrays, so its own
   bookkeeping stays far below the server's cost.  Latency is stamped
   from the round's due time, not from when the bytes left, so a stalled
   send shows up in the next requests' latency. *)

(* Monotonic seconds with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* ------------------------------------------------------------------ *)
(* the server process, observed from outside *)

type proc = { pid : int; spawned : float }

let live_pids : int list ref = ref []

let spawn ~exe ~args ~log =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let spawned = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull out out
  in
  Unix.close devnull;
  Unix.close out;
  live_pids := pid :: !live_pids;
  { pid; spawned }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* On-CPU nanoseconds of every thread of the process, summed from
   /proc/PID/task/TID/schedstat (user + system, nanosecond clock). *)
let cpu_ns p =
  let dir = Printf.sprintf "/proc/%d/task" p.pid in
  Array.fold_left
    (fun acc tid ->
       match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
       | s -> (
           match String.split_on_char ' ' (String.trim s) with
           | ns :: _ -> acc +. float_of_string ns
           | [] -> acc)
       | exception Sys_error _ -> acc)
    0.0 (Sys.readdir dir)

(* Peak resident set (VmHWM) in kB. *)
let peak_rss_kb p =
  let status = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  let field =
    List.find_map
      (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" Option.some
         else None)
      (String.split_on_char '\n' status)
  in
  match field with Some kb -> kb | None -> fail "no VmHWM for %d" p.pid

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* SIGTERM (graceful drain), then wait; SIGKILL after [grace] seconds.
   Returns whether the server exited with status 0 on its own. *)
let stop ?(grace = 15.0) p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match waitpid_nohang p.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid);
        false
      end
      else (Unix.sleepf 0.002; wait ())
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  let ok = wait () in
  live_pids := List.filter (( <> ) p.pid) !live_pids;
  ok

let kill_all () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

(* ------------------------------------------------------------------ *)
(* connection *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* end of valid bytes *)
}

let connect p ~path ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match waitpid_nohang p.pid with
       | 0, _ -> ()
       | _ ->
         live_pids := List.filter (( <> ) p.pid) !live_pids;
         fail "server exited before listening");
      if now () > deadline then fail "server did not listen within %.0fs" timeout;
      Unix.sleepf 0.0002;
      go ()
  in
  let fd = go () in
  (* a wedged server fails the run instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { fd; buf = Bytes.create (1 lsl 20); lo = 0; hi = 0 }

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | k -> write_all fd s (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c s = write_all c.fd s 0 (String.length s)

(* Blocking read of whatever is available; compacts first. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then fail "reply line longer than buffer";
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> fail "server closed the connection"
  | k -> c.hi <- c.hi + k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    fail "no reply from the server within the read timeout"

let readable c timeout =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ------------------------------------------------------------------ *)
(* per-run state: preallocated per-tag arrays *)

type tags = {
  kind : Bytes.t;             (* Workload.k_* per tag *)
  round : int array;
  resource : int array;
  t_resp : Float.Array.t;     (* receive time of the terminal *)
  mutable terminals : int;
  mutable scheduled : int;
  mutable rejected : int;
  mutable dups : int;         (* a second terminal for one tag *)
  mutable errors : int;       (* unknown tags, error lines, garbage *)
  mutable acked : int;        (* last [round] ack seen *)
  mutable acked_t : float;    (* when it was parsed *)
  mutable welcomed : bool;
  (* first arrival time of each server round seen in [sched] replies,
     for the paced round period *)
  mutable last_round : int;
  mutable last_round_t : float;
  periods : float array;
  mutable n_periods : int;
}

let make_tags ~count ~rounds =
  {
    kind = Bytes.make count '\000';
    round = Array.make count 0;
    resource = Array.make count 0;
    t_resp = Float.Array.make count 0.0;
    terminals = 0;
    scheduled = 0;
    rejected = 0;
    dups = 0;
    errors = 0;
    acked = -1;
    acked_t = 0.0;
    welcomed = false;
    last_round = -1;
    last_round_t = 0.0;
    periods = Array.make (max 1 rounds) 0.0;
    n_periods = 0;
  }

(* Ready a state for the next repetition. *)
let reset st =
  Bytes.fill st.kind 0 (Bytes.length st.kind) '\000';
  Float.Array.fill st.t_resp 0 (Float.Array.length st.t_resp) 0.0;
  st.terminals <- 0;
  st.scheduled <- 0;
  st.rejected <- 0;
  st.dups <- 0;
  st.errors <- 0;
  st.acked <- -1;
  st.acked_t <- 0.0;
  st.welcomed <- false;
  st.last_round <- -1;
  st.last_round_t <- 0.0;
  st.n_periods <- 0

let kind_of st tag = Char.code (Bytes.get st.kind tag)

(* Non-negative decimal at [i]; returns (value, index after). *)
let int_at b i stop =
  let rec go acc j =
    if j < stop then
      let c = Bytes.unsafe_get b j in
      if c >= '0' && c <= '9' then go ((acc * 10) + Char.code c - 48) (j + 1)
      else (acc, j)
    else (acc, j)
  in
  let v, j = go 0 i in
  if j = i then (-1, j) else (v, j)

let has_prefix b i stop p =
  let n = String.length p in
  let rec eq k = k = n || (Bytes.unsafe_get b (i + k) = p.[k] && eq (k + 1)) in
  i + n <= stop && eq 0

let terminal st ~t tag kind round res =
  if tag < 0 || tag >= Bytes.length st.kind then st.errors <- st.errors + 1
  else if kind_of st tag <> Workload.k_none then st.dups <- st.dups + 1
  else begin
    Bytes.set st.kind tag (Char.chr kind);
    st.round.(tag) <- round;
    st.resource.(tag) <- res;
    Float.Array.set st.t_resp tag t;
    st.terminals <- st.terminals + 1;
    if kind = Workload.k_sched then st.scheduled <- st.scheduled + 1;
    if kind = Workload.k_rej then st.rejected <- st.rejected + 1
  end

let on_line st ~t b i stop =
  match Bytes.unsafe_get b i with
  | 's' when has_prefix b i stop "sched " ->
    let tag, j = int_at b (i + 6) stop in
    let round, j = int_at b (j + 1) stop in
    let res, _ = int_at b (j + 1) stop in
    terminal st ~t tag Workload.k_sched round res;
    if round > st.last_round then begin
      if round = st.last_round + 1 && st.n_periods < Array.length st.periods
      then begin
        st.periods.(st.n_periods) <- t -. st.last_round_t;
        st.n_periods <- st.n_periods + 1
      end;
      st.last_round <- round;
      st.last_round_t <- t
    end
  | 'e' when has_prefix b i stop "exp " ->
    let tag, _ = int_at b (i + 4) stop in
    terminal st ~t tag Workload.k_exp 0 0
  | 'r' when has_prefix b i stop "round " ->
    let round, _ = int_at b (i + 6) stop in
    st.acked <- round;
    st.acked_t <- t
  | 'r' when has_prefix b i stop "rej " ->
    let tag, _ = int_at b (i + 4) stop in
    terminal st ~t tag Workload.k_rej 0 0
  | 'w' when has_prefix b i stop "welcome " -> st.welcomed <- true
  | _ -> st.errors <- st.errors + 1

(* Consume every complete line in the buffer. *)
let drain_lines c st =
  let t = now () in
  let rec go () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some nl when nl < c.hi ->
      if nl > c.lo then on_line st ~t c.buf c.lo nl;
      c.lo <- nl + 1;
      go ()
    | Some _ | None -> ()
  in
  if c.lo < c.hi then go ()

let read_some c st =
  fill c;
  drain_lines c st

let read_until c st ~timeout cond =
  let deadline = now () +. timeout in
  while not (cond ()) do
    if now () > deadline then fail "timed out waiting for the server";
    if readable c 0.5 then read_some c st
  done

(* ------------------------------------------------------------------ *)
(* one repetition *)

type rep = {
  setup_s : float;           (* spawn -> welcome *)
  wall_s : float;            (* first write -> last terminal *)
  submitted : int;
  terminals : int;
  scheduled : int;
  rejected : int;
  dups : int;
  errors : int;
  digest : int;              (* of the decisions, see Workload.digest *)
  round_ms : float array;    (* lock-step: write -> ack; paced: period *)
  decision_ms : float array; (* due time -> terminal, per tag *)
  late_ms : float array;     (* actual send - due, per round *)
  cpu_ns : float;            (* server CPU from welcome to last terminal *)
  rss_kb : int;
  gen_busy : float;          (* generator CPU / wall *)
  clean_exit : bool;
}

let proc_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Quantiles of [a] at each of [qs], sorting once; nan when [a] is
   empty, which fails the finite-metrics check. *)
let quantiles a qs =
  let a = Array.copy a in
  Array.sort Float.compare a;
  List.map
    (fun q -> if Array.length a = 0 then nan else Prelude.Stats.quantile a q)
    qs

(* [st] is the run's per-tag state, reused (and reset) by every
   repetition so the generator allocates nothing per request. *)
let run_rep ~exe ~workdir ~st (inp : Workload.inputs) =
  let sock = Filename.concat workdir "srv.sock" in
  let args = Workload.server_args inp.spec ~sock ~seed:inp.seed in
  let p = spawn ~exe ~args ~log:(Filename.concat workdir "server.log") in
  Fun.protect
    ~finally:(fun () ->
        if List.mem p.pid !live_pids then ignore (stop ~grace:2.0 p))
  @@ fun () ->
  let c = connect p ~path:sock ~timeout:30.0 in
  let count = Workload.n_requests inp in
  reset st;
  send c (Serve.Protocol.render_client (Hello { client = "perfbench" }) ^ "\n");
  read_until c st ~timeout:30.0 (fun () -> st.welcomed);
  let setup_s = now () -. p.spawned in
  let cpu0 = cpu_ns p in
  let due = Array.make inp.horizon 0.0 in
  let late = Array.make inp.horizon 0.0 in
  let round_ms = Array.make inp.horizon 0.0 in
  let all_done () = st.terminals + st.dups >= count in
  let g0 = proc_cpu () in
  let t_begin = now () in
  (match inp.spec.tick with
   | Workload.Lockstep ->
     for r = 0 to inp.horizon - 1 do
       let t0 = now () in
       due.(r) <- t0;
       (* lock-step: round r is due the moment round r-1 is acked *)
       if r > 0 then late.(r) <- (t0 -. st.acked_t) *. 1000.0;
       send c inp.payload.(r);
       while st.acked < r do
         read_some c st
       done;
       round_ms.(r) <- (now () -. t0) *. 1000.0
     done;
     read_until c st ~timeout:30.0 all_done
   | Workload.Paced dt ->
     let start = t_begin +. 0.002 in
     let next = ref 0 in
     while !next < inp.horizon do
       let r = !next in
       let d = start +. (float_of_int r *. dt) in
       let t = now () in
       if t >= d then begin
         due.(r) <- d;
         late.(r) <- (t -. d) *. 1000.0;
         send c inp.payload.(r);
         incr next
       end
       else if readable c (d -. t) then read_some c st
     done;
     read_until c st ~timeout:30.0 all_done);
  let t_done = now () in
  let t_end =
    Float.Array.fold_left Float.max t_begin st.t_resp
  in
  let gen_cpu = proc_cpu () -. g0 in
  let cpu_ns = cpu_ns p -. cpu0 in
  let rss_kb = peak_rss_kb p in
  send c (Serve.Protocol.render_client Bye ^ "\n");
  Unix.close c.fd;
  let clean_exit = stop p in
  let decision_ms =
    Array.init count (fun tag ->
        let r = inp.inst.Sched.Instance.requests.(tag).arrival in
        (Float.Array.get st.t_resp tag -. due.(r)) *. 1000.0)
  in
  let wall_s = t_end -. t_begin in
  {
    setup_s;
    wall_s;
    submitted = count;
    terminals = st.terminals;
    scheduled = st.scheduled;
    rejected = st.rejected;
    dups = st.dups;
    errors = st.errors;
    digest =
      Workload.digest ~count (fun tag ->
          (kind_of st tag, st.round.(tag), st.resource.(tag)));
    round_ms =
      (match inp.spec.tick with
       | Workload.Lockstep -> round_ms
       | Workload.Paced _ ->
         Array.map (fun s -> s *. 1000.0) (Array.sub st.periods 0 st.n_periods));
    decision_ms;
    late_ms = late;
    cpu_ns;
    rss_kb;
    gen_busy = gen_cpu /. Float.max 1e-9 (t_done -. t_begin);
    clean_exit;
  }
