(** Text codec for instances and request fields, and the rsp/1 line
    grammar it shares with [Serve.Protocol] and [Cluster.Wire].

    A versioned, line-oriented format: the request-line grammar here is
    the one requests travel over the wire with, so a trace saved with
    {!save} replays byte-identically through the server ([reqsched load
    --mode replay]).

    Format (one record per line):
    {v
    instance rsp/1 n=<n> d=<d> requests=<count>
    req <arrival> <alt0,alt1,...> <deadline>
    ...
    end
    v}

    {!to_string} is canonical: [to_string (of_string s)] is
    byte-identical to a canonically rendered [s], and
    [of_string (to_string i)] rebuilds an instance with identical
    parameters and requests (the round-trip the test-suite pins). *)

val version : string
(** ["rsp/1"], shared with [Serve.Protocol] and [Cluster.Wire]. *)

(** The line primitives every rsp/1 codec is written with: one digit
    writer, one field cursor and one integer rule.

    The accepted language, the same in all three codecs: a line is a
    keyword and fields separated by exactly one space (a double,
    leading or trailing space makes an empty field).  An integer field
    is read as [int_of_string] reads it: [0x10], [+1], [1_0] and [007]
    are accepted, values go up to [max_int], and a 19-digit overflow is
    malformed.  An alternative list is a non-empty comma list of
    distinct non-negative integers.  Readers raise {!Line.Malformed}
    with a message naming the field. *)
module Line : sig
  val max_line : int
  (** Longest line either wire accepts, in bytes (65536). *)

  val add_int : Buffer.t -> int -> unit
  val add_field : Buffer.t -> int -> unit
  val add_list : Buffer.t -> char -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
  val add_alts : Buffer.t -> int list -> unit
  (** An integer as [string_of_int] writes it; the same after a space;
      [sep]-separated items; a comma-separated list, e.g. ["3,0"]. *)

  exception Malformed of string
  val fail : string -> 'a

  type cursor = { line : string; mutable pos : int; mutable lim : int }
  (** The next field runs from [pos] to the next space or [lim];
      [pos = lim + 1] once the last one is read.  [lim] is the line's
      end except inside an entry of {!entries}. *)

  val cursor : string -> cursor

  val next : cursor -> int
  (** Moves past the next field and returns its start [i]: the field
      is [line.[i .. pos - 1)] ("truncated line" when none is left). *)

  val int_at : what:string -> string -> int -> int -> int
  val int : cursor -> what:string -> int
  val nat_at : what:string -> string -> int -> int -> int
  val nat : cursor -> what:string -> int
  val word : cursor -> string
  val versioned : cursor -> unit
  val alts : cursor -> int list
  val rest : cursor -> string
  val fields : cursor -> int
  val finish : cursor -> unit
  (** [int_at ~what s i j] is [s.[i..j)] as an integer
      (["malformed <what> \"<field>\""]), and [nat_at] also rejects a
      negative one (["negative <what> <v>"]); up to eighteen plain
      digits are decoded without allocating.  [int], [nat], [word] and
      [alts] read the next field ([alts] adds ["empty
      alternative list"] and ["duplicate resource <v>"]), and
      [versioned] checks that it is {!version}.  [rest] is everything up
      to [lim] ([""] when nothing is left), [fields] how many fields
      are left (0 once the last is read), and [finish] raises unless
      there are none. *)

  val entries : cursor -> char -> (int -> cursor -> 'a) -> 'a list
  (** [entries c sep read] reads the rest of the line as
      [sep]-separated entries, entry [i] by [read i c] with [lim] at
      its end, then {!finish}es it.  Nothing left, or a bare trailing
      space, is no entry; a trailing [sep] makes an empty last one. *)
end

val add_req_fields :
  Buffer.t -> first:int -> alternatives:int list -> deadline:int -> unit
(** ["<first> <alts> <deadline>"]: [first] is the arrival round in a
    trace file and the client's request tag on the wire. *)

val req_fields : Line.cursor -> what:string -> int * int list * int
(** Exactly the three fields up to [lim]; [what] names the first one in
    errors ("arrival", "tag").  [first] may be negative, the deadline
    must be [>= 1]. *)

val to_string : Instance.t -> string
val of_string : string -> (Instance.t, string) result

val save : path:string -> Instance.t -> unit
(** {!to_string} to a file.  @raise Sys_error on I/O failure. *)

val load : path:string -> (Instance.t, string) result
