(* Socket plumbing for the daemon (Server): full-buffer writes and
   listener setup. Listeners are close-on-exec so no child process a
   request might start inherits them. *)

let rec write_all fd s off =
  if off < String.length s then
    let n =
      try Unix.write_substring fd s off (String.length s - off)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let listen_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A previous daemon that died uncleanly leaves the socket file
     behind; binding over it needs the unlink. A live daemon is not
     protected against — last bind wins, as with any pidfile-less
     service. *)
  unlink_quiet path;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd
