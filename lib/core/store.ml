let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* --- disk layer ---------------------------------------------------- *)

type 'v disk = { dir : string; magic : string }

let disk ~tag dir =
  mkdir_p dir;
  let magic =
    Printf.sprintf "lowpart-store/1 ocaml-%s %s\n" Sys.ocaml_version tag
  in
  { dir; magic }

let suffix = ".entry"
let path d key = Filename.concat d.dir (Digest.to_hex key ^ suffix)

(* Magic, then digest, then Marshal, then key — see the interface for
   why the digest must come before Marshal sees a byte. *)
let load d key =
  let path = path d key in
  let read () =
    let s = In_channel.with_open_bin path In_channel.input_all in
    let m = String.length d.magic in
    let payload = m + 16 in
    if
      String.length s < payload
      || (not (String.starts_with ~prefix:d.magic s))
      || not
           (String.equal (String.sub s m 16)
              (Digest.substring s payload (String.length s - payload)))
    then failwith "corrupt entry";
    let stored_key, v = Marshal.from_string s payload in
    if not (String.equal stored_key key) then failwith "key mismatch";
    v
  in
  if not (Sys.file_exists path) then None
  else
    match read () with
    | v -> Some v
    | exception _ ->
        (try Sys.remove path with Sys_error _ -> ());
        None

let save d key v =
  let payload = Marshal.to_string (key, v) [] in
  try
    mkdir_p d.dir;
    let tmp = Filename.temp_file ~temp_dir:d.dir "." ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc d.magic;
        output_string oc (Digest.string payload);
        output_string oc payload);
    Sys.rename tmp (path d key)
  with Sys_error _ -> ()

let count dir =
  match Sys.readdir dir with
  | files ->
      Array.fold_left
        (fun acc f -> if Filename.check_suffix f suffix then acc + 1 else acc)
        0 files
  | exception Sys_error _ -> 0

(* --- memory tier --------------------------------------------------- *)

type stats = { hits : int; misses : int; entries : int; disk_hits : int }

type 'v t = {
  tag : string;
  lock : Mutex.t;
  table : (string, 'v) Hashtbl.t;
  mutable disk : 'v disk option;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
}

let create ~tag =
  {
    tag;
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    disk = None;
    hits = 0;
    misses = 0;
    disk_hits = 0;
  }

let set_dir t dir =
  let d = Option.map (disk ~tag:t.tag) dir in
  Mutex.protect t.lock (fun () -> t.disk <- d)

(* The probe is the per-pair path of every flow, so it takes the lock
   once and allocates nothing on a hit; without a disk layer a miss is
   counted under the same lock. Disk reads and the computation run
   outside the lock, so other domains only serialise on the table. *)
let find_or_compute t key compute =
  Mutex.lock t.lock;
  match Hashtbl.find t.table key with
  | v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | exception Not_found -> (
      let disk = t.disk in
      if Option.is_none disk then t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      match Option.bind disk (fun d -> load d key) with
      | Some v ->
          Mutex.protect t.lock (fun () ->
              Hashtbl.replace t.table key v;
              t.hits <- t.hits + 1;
              t.disk_hits <- t.disk_hits + 1);
          v
      | None ->
          if Option.is_some disk then
            Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1);
          let v = compute () in
          Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key v);
          Option.iter (fun d -> save d key v) disk;
          v)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        disk_hits = t.disk_hits;
      })

let reset t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0;
      t.disk_hits <- 0)
