(** Checksummed, content-addressed persistence, and the memory tier in
    front of it: every persisted result of the flow goes through here.
    A key is a 16-byte digest of everything the value depends on.

    {2 Disk layer}

    One entry per file, [dir/<hex key>.entry]: a magic line pinning the
    store format, the OCaml version and the entry's tag (which names the
    value's type: [cand], [init], [explore-point]), then the 16-byte
    [Digest] of the payload, then the payload, the marshalled
    [(key, value)] pair. {!load} checks the magic, then the digest, then
    unmarshals, then compares the stored key; any failure deletes the
    file and reports a miss, so a corrupt entry costs one recomputation.
    The digest comes before unmarshalling because [Marshal] trusts its
    input: corrupt bytes can decode to a wrong value or crash the
    process. {!save} renames a unique temp file into place, so domains
    and processes sharing a directory only ever publish whole entries. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

type 'v disk
(** A directory of entries of one tag, holding values of type ['v]. *)

val disk : tag:string -> string -> 'v disk
(** [disk ~tag dir] creates [dir] if needed. The caller guarantees
    that one tag is only ever used at one type. *)

val load : 'v disk -> string -> 'v option

val save : 'v disk -> string -> 'v -> unit
(** Best effort: an unwritable directory drops the entry. *)

val count : string -> int
(** Entries in a directory, of any tag (0 if it is gone). *)

(** {2 Memory tier} *)

type 'v t
(** A domain-safe table in front of an optional disk layer. *)

type stats = {
  hits : int;  (** memory + disk hits *)
  misses : int;
  entries : int;  (** in-memory entries *)
  disk_hits : int;  (** subset of [hits] served from disk *)
}

val create : tag:string -> 'v t
(** An empty tier, not persisted. *)

val set_dir : 'v t -> string option -> unit
(** Persist under [Some dir], or stop persisting. *)

val find_or_compute : 'v t -> string -> (unit -> 'v) -> 'v
(** Probe memory, then disk (a disk hit is promoted to memory), else
    run the computation outside the lock and publish its value to
    memory and disk. Domains racing on a cold key both compute; the
    values are equal and the last one stays. *)

val stats : 'v t -> stats

val reset : 'v t -> unit
(** Drop the memory entries and zero the counters; disk entries
    stay. *)
