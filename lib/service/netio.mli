(** Socket plumbing for {!Server}. *)

val write_all : Unix.file_descr -> string -> int -> unit
(** [write_all fd s off] writes [s] from [off] to the end, retrying
    short writes and [EINTR]. *)

val unlink_quiet : string -> unit

val listen_unix : string -> Unix.file_descr
(** Bind + listen on a Unix-domain socket path (unlinking a stale
    one first). Close-on-exec. *)

val listen_tcp : int -> Unix.file_descr
(** Bind + listen on loopback TCP. Close-on-exec. *)
