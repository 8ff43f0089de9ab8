module Jsonout = Educhip_obs.Jsonout
module Obs = Educhip_obs.Obs
module Crc32 = Educhip_util.Crc32
module Fs = Educhip_util.Fs

type t = { dir : string; max_entries : int; ns : string; mutex : Mutex.t }

let default_dir = ".educhip-artifacts"

(* A full flow run stores ten artifacts, so the default cap holds ~200
   distinct (design, config) chains — sized for a campaign, not a demo. *)
let default_max_entries = 2048

let create ?(max_entries = default_max_entries) ?(ns = "artifact") ~dir () =
  if max_entries < 1 then
    invalid_arg
      (Printf.sprintf "Store.create: max_entries must be >= 1, got %d" max_entries);
  { dir; max_entries; ns; mutex = Mutex.create () }

let dir t = t.dir

let metric_names t =
  List.map
    (fun c -> t.ns ^ "." ^ c)
    [ "hits"; "misses"; "stores"; "evicted"; "quarantined"; "bytes_written"; "bytes_read" ]

let count t name n = Obs.add_counter (t.ns ^ "." ^ name) n
let entry_path t key = Filename.concat t.dir (key ^ ".json")

(* On-disk form: the owner's object with a trailing [crc] member holding
   the CRC-32 of the serialized object without that member, i.e. of the
   file's bytes up to the spliced [,"crc":"…"] plus the closing brace.
   A read checks those raw bytes before parsing them, so any change to
   them — a flipped bit or a re-serialization — fails the check. An
   entry without a [crc] is corrupt. *)
let crc_open = "\"crc\":\""

let to_disk = function
  | Jsonout.Obj fields as obj when not (List.mem_assoc "crc" fields) ->
    let payload = Jsonout.to_string obj in
    let crc = Crc32.to_hex (Crc32.digest payload) in
    (* splice the crc member in front of the closing brace *)
    String.sub payload 0 (String.length payload - 1)
    ^ Printf.sprintf "%s%s%s\"}\n" (if fields = [] then "" else ",") crc_open crc
  | _ -> invalid_arg "Store.put: entry must be an object without a crc member"

let of_disk text =
  (* the tail is exactly [,"crc":"xxxxxxxx"}\n], the comma absent for an
     empty object *)
  let n = String.length text in
  let hex_at = n - 11 in
  let member_at = hex_at - String.length crc_open in
  if
    member_at < 1
    || (not (String.ends_with ~suffix:"\"}\n" text))
    || String.sub text member_at (String.length crc_open) <> crc_open
  then failwith "store entry: missing crc";
  let body_end = if text.[member_at - 1] = ',' then member_at - 1 else member_at in
  let body = String.sub text 0 body_end ^ "}" in
  if Crc32.of_hex (String.sub text hex_at 8) <> Some (Crc32.digest body) then
    failwith "store entry: mismatched crc";
  match Jsonout.of_string body with
  | Jsonout.Obj _ as payload -> payload
  | _ -> failwith "store entry: not an object"

let read path =
  try
    Some
      (In_channel.with_open_bin path (fun ic ->
           really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let entry_files t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names |> List.filter (fun n -> Filename.check_suffix n ".json")

(* oldest mtime first; name breaks ties so eviction order is stable *)
let evict_locked t =
  let files = entry_files t in
  let excess = List.length files - t.max_entries in
  if excess > 0 then
    files
    |> List.filter_map (fun n ->
           let path = Filename.concat t.dir n in
           match Unix.stat path with
           | st -> Some (st.Unix.st_mtime, n, path)
           | exception Unix.Unix_error _ -> None)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, _, path) ->
           match Sys.remove path with
           | () -> count t "evicted" 1
           | exception Sys_error _ -> ())

(* Temp names are unique per write, not just per process, so two
   writers of one key never share a temp file whatever lock they hold. *)
let tmp_seq = Atomic.make 0

let put t key obj =
  let text = to_disk obj in
  Mutex.protect t.mutex (fun () ->
      Fs.mkdir_p t.dir;
      let path = entry_path t key in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
      in
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
      Sys.rename tmp path;
      count t "stores" 1;
      count t "bytes_written" (String.length text);
      evict_locked t)

let quarantine_dir t = Filename.concat t.dir "quarantine"

(* Corrupt entries are evidence (bit rot, a torn copy, a bad deploy),
   not garbage: moved aside for inspection, invisible to [entry_files],
   so they neither hit nor count against the cap. *)
let quarantine_locked t path =
  let qdir = quarantine_dir t in
  Fs.mkdir_p qdir;
  (try Sys.rename path (Filename.concat qdir (Filename.basename path))
   with Sys_error _ -> ());
  count t "quarantined" 1

let quarantine_key t key =
  Mutex.protect t.mutex (fun () ->
      let path = entry_path t key in
      if Sys.file_exists path then quarantine_locked t path)

let quarantined t =
  Mutex.protect t.mutex (fun () ->
      match Sys.readdir (quarantine_dir t) with
      | exception Sys_error _ -> 0
      | names ->
        Array.fold_left
          (fun n name -> if Filename.check_suffix name ".json" then n + 1 else n)
          0 names)

let get t key decode =
  Mutex.protect t.mutex (fun () ->
      let path = entry_path t key in
      let found =
        match read path with
        | None -> None
        | Some text -> (
          match decode (of_disk text) with
          | v ->
            (* touch for LRU: eviction is oldest-mtime-first *)
            (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
            count t "bytes_read" (String.length text);
            Some v
          | exception Failure _ ->
            quarantine_locked t path;
            None)
      in
      count t (if found = None then "misses" else "hits") 1;
      found)

(* Dry-run prediction: no counters, no LRU touch, no quarantine — a
   prediction must not mutate the store it is predicting against. *)
let probe t key decode =
  Mutex.protect t.mutex (fun () ->
      match read (entry_path t key) with
      | None -> false
      | Some text -> (
        match decode (of_disk text) with _ -> true | exception Failure _ -> false))

let entries t = Mutex.protect t.mutex (fun () -> List.length (entry_files t))

let clear t =
  Mutex.protect t.mutex (fun () ->
      List.iter
        (fun n -> try Sys.remove (Filename.concat t.dir n) with Sys_error _ -> ())
        (entry_files t))
