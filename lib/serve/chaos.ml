module Mclock = Educhip_util.Mclock
module Rng = Educhip_util.Rng
module Fs = Educhip_util.Fs
module Jsonout = Educhip_obs.Jsonout
module Flow = Educhip_flow.Flow

type config = {
  daemon : string;
  state_dir : string;
  workers : int;
  jobs : Wire.submit_spec list;
  kills : int;
  seed : int;
  use_journal : bool;
}

type stats = {
  mode : string;
  jobs_total : int;
  kills : int;
  recoveries : int;
  replayed_total : int;
  restored_total : int;
  duplicate_probes : int;
  duplicates_suppressed : int;
  lost : int;
  mismatched : int;
  zero_loss : bool;
  bit_identical : bool;
  recovery_wall_ms_total : float;
  wall_ms : float;
}

let stats_json s =
  Jsonout.Obj
    [
      ("mode", Jsonout.String s.mode);
      ("jobs_total", Jsonout.Int s.jobs_total);
      ("kills", Jsonout.Int s.kills);
      ("recoveries", Jsonout.Int s.recoveries);
      ("replayed_total", Jsonout.Int s.replayed_total);
      ("restored_total", Jsonout.Int s.restored_total);
      ("duplicate_probes", Jsonout.Int s.duplicate_probes);
      ("duplicates_suppressed", Jsonout.Int s.duplicates_suppressed);
      ("lost", Jsonout.Int s.lost);
      ("mismatched", Jsonout.Int s.mismatched);
      ("zero_loss", Jsonout.Bool s.zero_loss);
      ("bit_identical", Jsonout.Bool s.bit_identical);
      ("recovery_wall_ms_total", Jsonout.Float s.recovery_wall_ms_total);
      ("wall_ms", Jsonout.Float s.wall_ms);
    ]

(* {1 Filesystem scraps} *)

let ( / ) = Filename.concat

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* {1 Result identity}

   The same verdict+PPA signature the serve smoke check uses: every
   field that QoR determinism promises, rendered with %h so float
   identity is exact, none of the fields (wall times, worker ids) that
   legitimately differ between runs. *)

let lost_sig = "<lost>"

let signature = function
  | Ok (Wire.Job_result { verdict; ppa; _ }) ->
    let ppa =
      match ppa with
      | Some (p : Flow.ppa) ->
        Printf.sprintf "cells=%d area=%h wns=%h wl=%h power=%h fmax=%h drc=%b"
          p.Flow.cells p.Flow.area_um2 p.Flow.wns_ps p.Flow.wirelength_um
          p.Flow.total_power_uw p.Flow.fmax_mhz p.Flow.drc_clean
      | None -> "-"
    in
    Printf.sprintf "%s [%s]" verdict ppa
  | Ok (Wire.Rejected { reason = Wire.Unknown_id _; _ }) -> lost_sig
  | Ok r -> "unexpected: " ^ Wire.encode_response r
  | Error msg -> "error: " ^ msg

(* {1 Daemon control} *)

type daemon = { pid : int; socket : string }

let daemon_log_tail log =
  match read_file log with
  | Some s ->
    let n = String.length s in
    if n <= 2000 then s else "..." ^ String.sub s (n - 2000) 2000
  | None -> "(no daemon log)"

let start_daemon cfg ~socket ~cache_dir ~journal ~log =
  let args =
    [
      cfg.daemon; "--socket"; socket;
      "--workers"; string_of_int cfg.workers;
      "--cache-dir"; cache_dir;
      (* the harness measures durability, not admission control: make
         the gates roomy enough that nothing is ever refused *)
      "--max-queue"; "1024";
      "--basic-rate"; "100000"; "--basic-burst"; "100000";
      "--basic-inflight"; "1024";
    ]
    @ (match journal with Some j -> [ "--journal"; j ] | None -> [])
  in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close log_fd)
      (fun () -> Unix.create_process cfg.daemon (Array.of_list args) null log_fd log_fd)
  in
  { pid; socket }

(* Readiness doubles as recovery-completion: eduserved replays the
   journal before it opens the socket, so the first successful connect
   means every pre-crash job is terminal again. *)
let wait_ready ?(timeout_ms = 60_000.0) d ~log =
  let t0 = Mclock.now_ms () in
  let rec loop () =
    match Client.connect_unix d.socket with
    | c -> Client.close c
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ | (exception Unix.Unix_error _) ->
        failwith ("chaos: daemon died during startup:\n" ^ daemon_log_tail log));
      if Mclock.elapsed_ms t0 > timeout_ms then
        failwith ("chaos: daemon not ready in time:\n" ^ daemon_log_tail log)
      else begin
        Thread.delay 0.05;
        loop ()
      end
  in
  loop ()

let sigkill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

let drain d =
  (try
     let c = Client.connect_unix d.socket in
     ignore (Client.request c Wire.Drain);
     Client.close c
   with Unix.Unix_error _ | Sys_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

let read_recovery path =
  match read_file path with
  | None -> None
  | Some text -> (
    match Jsonout.of_string text with
    | exception Failure _ -> None
    | j ->
      let int k = match Jsonout.member k j with Some (Jsonout.Int n) -> n | _ -> 0 in
      let num k =
        match Jsonout.member k j with
        | Some (Jsonout.Float f) -> f
        | Some (Jsonout.Int n) -> float_of_int n
        | _ -> 0.0
      in
      Some (int "replayed", int "restored_completed", num "recovery_wall_ms"))

(* submit through the retrying client: reconnect-and-resubmit is
   exactly the loop a real student-facing client runs, and with the
   idempotency key set it is safe by construction *)
let submit_retry ~seed ~socket spec =
  let policy =
    { Client.default_retry_policy with Client.attempts = 6; base_ms = 50.0; seed }
  in
  match
    Client.submit_with_retry ~policy
      ~connect:(fun () -> Client.connect_unix socket)
      spec
  with
  | Ok (c, resp) ->
    Client.close c;
    Ok resp
  | Error _ as e -> e

(* {1 The campaign} *)

let await_timeout_ms = 120_000.0

let run cfg =
  let t_start = Mclock.now_ms () in
  let n = List.length cfg.jobs in
  if n = 0 then invalid_arg "Chaos.run: empty job list";
  Fs.mkdir_p cfg.state_dir;
  let socket = cfg.state_dir / "chaos.sock" in
  let log = cfg.state_dir / "daemon.log" in
  let journal_path = cfg.state_dir / "journal.eduj" in
  let recovery_json = journal_path ^ ".recovery.json" in
  let keyed =
    List.mapi
      (fun i s ->
        { s with Wire.idempotency_key = Some (Printf.sprintf "chaos-k%03d" i) })
      cfg.jobs
  in

  (* baseline: undisturbed run on fresh state — the reference answers *)
  let base_cache = cfg.state_dir / "cache-baseline" in
  Fs.rm_rf base_cache;
  Fs.rm_rf log;
  let d = start_daemon cfg ~socket ~cache_dir:base_cache ~journal:None ~log in
  wait_ready d ~log;
  let baseline =
    let c = Client.connect_unix socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        List.map
          (fun s ->
            match Client.submit c s with
            | Ok (Wire.Accepted { id; _ }) ->
              signature (Client.await ~timeout_ms:await_timeout_ms c id)
            | Ok r -> failwith ("chaos: baseline submit refused: " ^ Wire.encode_response r)
            | Error msg -> failwith ("chaos: baseline submit failed: " ^ msg))
          keyed)
  in
  drain d;

  (* chaos: same campaign, fresh state, SIGKILLs at seeded points *)
  let chaos_cache = cfg.state_dir / "cache-chaos" in
  Fs.rm_rf chaos_cache;
  Fs.rm_rf journal_path;
  Fs.rm_rf recovery_json;
  let journal = if cfg.use_journal then Some journal_path else None in
  let rng = Rng.create ~seed:cfg.seed in
  let kills = max 0 (min cfg.kills n) in
  let kill_set =
    let points = Array.init n (fun i -> i + 1) in
    Rng.shuffle rng points;
    Array.sub points 0 kills |> Array.to_list |> List.sort_uniq compare
  in
  let d = ref (start_daemon cfg ~socket ~cache_dir:chaos_cache ~journal ~log) in
  wait_ready !d ~log;
  let ids = Array.make n None in
  let duplicate_probes = ref 0 and duplicates_suppressed = ref 0 in
  let recoveries = ref 0 and replayed_total = ref 0 and restored_total = ref 0 in
  let recovery_wall = ref 0.0 in
  List.iteri
    (fun i s ->
      (* submit without awaiting: the queue must be holding work when
         the kill lands, or there is nothing to lose *)
      (match submit_retry ~seed:(cfg.seed + i) ~socket s with
      | Ok (Wire.Accepted { id; _ }) -> ids.(i) <- Some id
      | Ok r -> failwith ("chaos: submit refused: " ^ Wire.encode_response r)
      | Error msg -> failwith ("chaos: submit failed: " ^ msg));
      if List.mem (i + 1) kill_set then begin
        sigkill !d;
        d := start_daemon cfg ~socket ~cache_dir:chaos_cache ~journal ~log;
        wait_ready !d ~log;
        incr recoveries;
        if cfg.use_journal then (
          match read_recovery recovery_json with
          | Some (rep, res, wall) ->
            replayed_total := !replayed_total + rep;
            restored_total := !restored_total + res;
            recovery_wall := !recovery_wall +. wall
          | None -> failwith ("chaos: no recovery stats after restart:\n" ^ daemon_log_tail log));
        (* the client's view of the crash: the ack may or may not have
           arrived, so it resubmits the same key. Under a journal the
           daemon must answer with the original id, not a second run. *)
        incr duplicate_probes;
        match submit_retry ~seed:(cfg.seed + 1000 + i) ~socket s with
        | Ok (Wire.Accepted { id; duplicate; _ }) ->
          if duplicate && ids.(i) = Some id then incr duplicates_suppressed
          else if cfg.use_journal then
            failwith
              (Printf.sprintf
                 "chaos: resubmission of %s not suppressed (got %s, duplicate=%b)"
                 (Option.value ids.(i) ~default:"?") id duplicate)
          (* without a journal the key table died with the process: the
             resubmission legitimately starts a fresh job; the original
             id stays lost and is scored below *)
        | Ok r -> failwith ("chaos: duplicate probe refused: " ^ Wire.encode_response r)
        | Error msg -> failwith ("chaos: duplicate probe failed: " ^ msg)
      end)
    keyed;

  (* score by original id against the baseline signatures *)
  let lost = ref 0 and mismatched = ref 0 in
  let c = Client.connect_unix socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iteri
        (fun i base_sig ->
          match ids.(i) with
          | None -> incr lost
          | Some id ->
            let s = signature (Client.await ~timeout_ms:await_timeout_ms c id) in
            if s = lost_sig then incr lost
            else if s <> base_sig then incr mismatched)
        baseline);
  drain !d;
  {
    mode = (if cfg.use_journal then "journal" else "no_journal");
    jobs_total = n;
    kills = List.length kill_set;
    recoveries = !recoveries;
    replayed_total = !replayed_total;
    restored_total = !restored_total;
    duplicate_probes = !duplicate_probes;
    duplicates_suppressed = !duplicates_suppressed;
    lost = !lost;
    mismatched = !mismatched;
    zero_loss = !lost = 0;
    bit_identical = !mismatched = 0;
    recovery_wall_ms_total = !recovery_wall;
    wall_ms = Mclock.now_ms () -. t_start;
  }
