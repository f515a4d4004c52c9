(** Line framing over byte streams. *)

type t
(** The unfinished last line of an inbound stream. *)

val create : unit -> t

val feed : t -> Bytes.t -> int -> int -> (string -> unit) -> unit
(** [feed t b off len emit] appends [len] bytes of [b] from [off] and
    calls [emit] on every ['\n']-terminated line they complete, oldest
    first (empty lines skipped); bytes after the last newline stay
    buffered as the next partial line.  Only the new bytes are scanned,
    and a buffered byte is copied out once, when its line completes. *)

val buffered : t -> int
(** Length of the buffered partial line. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string (blocking descriptors).
    @raise Unix.Unix_error as [Unix.write]. *)
