(* serve_mixed: an open-loop load generator against a real eduserved
   over a Unix socket. One thread sends on the schedule, the main thread
   polls results at a fixed interval; two connections in all. *)

module Flow = Educhip_flow.Flow
module Designs = Educhip_designs.Designs
module Mclock = Educhip_util.Mclock
module Obs = Educhip_obs.Obs
module Tracectx = Educhip_obs.Tracectx
module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Store = Educhip_artifact.Store
module Artifact = Educhip_artifact.Artifact
module Manifest = Educhip_sched.Manifest

type server = { pid : int; dir : string; sock : string }

let live = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let reap pid =
  let deadline = Mclock.now_ms () +. 10_000.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Mclock.now_ms () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun s -> s.pid <> pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
          rm_rf s.dir)
        !live)

let limit = "100000"

(* One worker, a fresh result cache and artifact store, no journal, and
   tenant limits loose enough that nothing is rejected. *)
let start ?(prom = false) ~exe ~dir () =
  mkdir_p (Filename.concat dir "cache");
  mkdir_p (Filename.concat dir "artifacts");
  let sock = Filename.concat dir "s.sock" in
  let args =
    [|
      exe; "--socket"; sock; "--workers"; "1"; "--max-queue"; limit;
      "--cache-dir"; Filename.concat dir "cache";
      "--artifact-dir"; Filename.concat dir "artifacts";
      "--advanced"; Loadgen.advanced_tenant;
      "--basic-rate"; limit; "--basic-burst"; limit; "--basic-inflight"; limit;
      "--advanced-rate"; limit; "--advanced-burst"; limit; "--advanced-inflight"; limit;
    |]
  in
  (* worker telemetry reaches the registry only when the server drains,
     so the traced pass reads it from the exit-time export *)
  let args =
    if prom then Array.append args [| "--prom"; Filename.concat dir "metrics.prom" |]
    else args
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  let s = { pid; dir; sock } in
  live := s :: !live;
  let deadline = Mclock.now_ms () +. 20_000.0 in
  let rec ready () =
    let up =
      match Client.connect_unix sock with
      | c ->
        let ok = match Client.request c Wire.Health with Ok _ -> true | Error _ -> false in
        Client.close c;
        ok
      | exception Unix.Unix_error _ -> false
    in
    if not up then begin
      if Mclock.now_ms () > deadline then failwith "eduserved did not come up";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "eduserved exited during start-up");
      Unix.sleepf 0.0002;
      ready ()
    end
  in
  ready ();
  s

let stop s =
  (match Client.connect_unix s.sock with
  | c ->
    ignore (Client.request c Wire.Drain);
    Client.close c
  | exception Unix.Unix_error _ -> ());
  reap s.pid

let exported_metrics s =
  try In_channel.with_open_text (Filename.concat s.dir "metrics.prom") In_channel.input_all
  with Sys_error _ -> ""

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 lines
  | exception Sys_error _ -> 0.0

(* sum of every sample of a Prometheus series, labels ignored *)
let prom_value text name =
  let prom = Obs.prom_name name in
  List.fold_left
    (fun acc (n, _, _, v) -> if n = prom then acc +. v else acc)
    0.0
    (Educhip_mon.Scrape.parse_exposition text)

type done_ = {
  latency_ms : float;
  verdict : string;
  from_cache : bool;
  exec_ms : float;
  wait_ms : float;
  ppa : Flow.ppa option;
  events : Tracectx.event list;
}

type status =
  | Pending
  | Accepted of string
  | Done of done_
  | Rejected
  | Transport of string
  | Timed_out

type pass = {
  reqs : Loadgen.req array;
  status : status array;
  cached : bool array;  (** [Accepted.cached] *)
  late_ms : float array;
  wall_ms : float;  (** from the first due time to the last result *)
  polls : int;
  submit_rtt : float list;
  poll_rtt : float list;
  codec_us : float list;
  peak_rss_mb : float;
}

let spec_of ~traced (r : Loadgen.req) =
  let s = r.Loadgen.spec in
  {
    (Wire.submit ~tenant:s.Loadgen.tenant s.Loadgen.design) with
    Wire.preset = Flow.preset_name s.Loadgen.preset;
    node = Catalogue.node_name;
    clock_ps = s.Loadgen.clock_ps;
    fault_seed = s.Loadgen.fault_seed;
    trace = (if traced then Some (Tracectx.generate ()) else None);
  }

let timed f =
  let t0 = Mclock.now_ms () in
  let v = f () in
  (v, Mclock.now_ms () -. t0)

let run_pass ~server ~seed ~seconds ~traced =
  let reqs = Loadgen.schedule ~seed ~seconds in
  let n = Array.length reqs in
  let status = Array.make n Pending in
  let cached = Array.make n false in
  let late_ms = Array.make n 0.0 in
  let enc_us = Array.make n 0.0 in
  let submit_rtt = ref [] and poll_rtt = ref [] and codec_us = ref [] in
  let accepted = Queue.create () and lock = Mutex.create () in
  let sender_done = Atomic.make false in
  let sconn = Client.connect_unix server.sock in
  let pconn = Client.connect_unix server.sock in
  let t0 = Mclock.now_ms () +. 10.0 in
  let due i = t0 +. reqs.(i).Loadgen.at_ms in
  let sender () =
    Array.iteri
      (fun i r ->
        let wait = due i -. Mclock.now_ms () in
        if wait > 0.0 then Unix.sleepf (wait /. 1000.0);
        late_ms.(i) <- Float.max 0.0 (Mclock.now_ms () -. due i);
        let spec = spec_of ~traced r in
        if traced then begin
          let _, ms = timed (fun () -> Wire.encode_request (Wire.Submit spec)) in
          enc_us.(i) <- ms *. 1000.0
        end;
        let resp, rtt = timed (fun () -> Client.submit sconn spec) in
        if traced then submit_rtt := rtt :: !submit_rtt;
        match resp with
        | Ok (Wire.Accepted { id; cached = c; _ }) ->
          cached.(i) <- c;
          Mutex.protect lock (fun () -> Queue.push (i, id) accepted)
        | Ok (Wire.Rejected _) -> status.(i) <- Rejected
        | Ok _ -> status.(i) <- Transport "unexpected submit response"
        | Error e -> status.(i) <- Transport e)
      reqs;
    Atomic.set sender_done true
  in
  let th = Thread.create sender () in
  let polls = ref 0 and last = ref t0 in
  let deadline = t0 +. (seconds *. 1000.0) +. 60_000.0 in
  let rec poll outstanding =
    let fresh =
      Mutex.protect lock (fun () ->
          let l = Queue.fold (fun acc x -> x :: acc) [] accepted in
          Queue.clear accepted;
          l)
    in
    let outstanding =
      List.filter
        (fun (i, id) ->
          let resp, rtt = timed (fun () -> Client.request pconn (Wire.Result id)) in
          incr polls;
          if traced then poll_rtt := rtt :: !poll_rtt;
          match resp with
          | Ok (Wire.Job_status _) -> true
          | Ok (Wire.Job_result r as resp) ->
            let now = Mclock.now_ms () in
            last := Float.max !last now;
            status.(i) <-
              Done
                {
                  latency_ms = now -. due i;
                  verdict = r.verdict;
                  from_cache = r.from_cache;
                  exec_ms = r.exec_ms;
                  wait_ms = r.wait_ms;
                  ppa = r.ppa;
                  events = r.trace_events;
                };
            if traced then begin
              let line = Wire.encode_response resp in
              let _, ms = timed (fun () -> Wire.decode_response line) in
              codec_us := (enc_us.(i) +. (ms *. 1000.0)) :: !codec_us
            end;
            false
          | Ok _ ->
            status.(i) <- Transport "unexpected result response";
            false
          | Error e ->
            status.(i) <- Transport e;
            false)
        (outstanding @ List.rev fresh)
    in
    let finished =
      Atomic.get sender_done && outstanding = []
      && Mutex.protect lock (fun () -> Queue.is_empty accepted)
    in
    if finished then ()
    else if Mclock.now_ms () > deadline then
      List.iter (fun (i, _) -> status.(i) <- Timed_out) outstanding
    else begin
      Unix.sleepf (Loadgen.poll_ms /. 1000.0);
      poll outstanding
    end
  in
  poll [];
  Thread.join th;
  Client.close sconn;
  Client.close pconn;
  {
    reqs;
    status;
    cached;
    late_ms;
    wall_ms = !last -. t0;
    polls = !polls;
    submit_rtt = !submit_rtt;
    poll_rtt = !poll_rtt;
    codec_us = !codec_us;
    peak_rss_mb = peak_rss_mb server.pid;
  }

let golden_key (s : Loadgen.spec) =
  {
    Golden.design = s.Loadgen.design;
    preset = Flow.preset_name s.Loadgen.preset;
    node = Catalogue.node_name;
    clock_ps =
      Option.value s.Loadgen.clock_ps ~default:(Catalogue.default_clock_ps s.Loadgen.preset);
  }

let golden_errors golden p =
  List.concat
    (List.mapi
       (fun i st ->
         match st with
         | Done d -> (
           match
             Golden.check golden (golden_key p.reqs.(i).Loadgen.spec) ~ppa:d.ppa
               ~verdict:d.verdict
           with
           | Ok () -> []
           | Error e -> [ e ])
         | _ -> [])
       (Array.to_list p.status))

let warm_steps = [ "synthesis"; "sizing"; "buffering"; "placement"; "cts"; "routing" ]

let memo_of ~store (s : Loadgen.spec) netlist =
  Artifact.memo ~store ~netlist
    ~cfg:(Flow.config ~node:(Catalogue.node ()) ?clock_period_ps:s.Loadgen.clock_ps s.Loadgen.preset)
    ~inject:[] ~fault_seed:s.Loadgen.fault_seed ~retries:Manifest.default_job.Manifest.retries

(* Restore each design's mapped netlist (the buffering step's output)
   from the run's store and check it against the RTL. *)
let cec ~store p =
  let seen = Hashtbl.create 16 in
  List.filter_map Fun.id
    (List.mapi
       (fun i (r : Loadgen.req) ->
         let d = r.Loadgen.spec.Loadgen.design in
         match (r.Loadgen.cls, p.status.(i)) with
         | Loadgen.Fresh, Done _ when not (Hashtbl.mem seen d) -> (
           Hashtbl.add seen d ();
           let rtl = Designs.netlist (Designs.find d) in
           let memo = memo_of ~store r.Loadgen.spec rtl in
           let states = List.map (fun s -> memo.Flow.memo_probe s) [ "synthesis"; "sizing"; "buffering" ] in
           match List.rev states with
           | Some { Flow.snap_state = Flow.S_netlist m; _ } :: _ -> (
             match Educhip_cec.Cec.check rtl m with
             | Educhip_cec.Cec.Equivalent -> None
             | v -> Some (Format.asprintf "%s: CEC %a" d Educhip_cec.Cec.pp_verdict v))
           | _ -> Some (d ^ ": mapped netlist not restorable from the artifact store"))
         | _ -> None)
       (Array.to_list p.reqs))

(* lookup plus decode of every warm step of each delta, in step order *)
let probe_ms ~store p =
  List.concat
    (List.mapi
       (fun i (r : Loadgen.req) ->
         match (r.Loadgen.cls, p.status.(i)) with
         | Loadgen.Delta, Done _ ->
           let rtl = Designs.netlist (Designs.find r.Loadgen.spec.Loadgen.design) in
           let memo = memo_of ~store r.Loadgen.spec rtl in
           List.map (fun s -> snd (timed (fun () -> memo.Flow.memo_probe s))) warm_steps
         | _ -> [])
       (Array.to_list p.reqs))
