module Flow = Educhip_flow.Flow
module Fault = Educhip_fault.Fault
module Guard = Educhip_fault.Guard
module Designs = Educhip_designs.Designs
module Pdk = Educhip_pdk.Pdk
module Linedsl = Educhip_util.Linedsl

type job = {
  index : int;
  design : string;
  tenant : string;
  priority : int;
  preset : Flow.preset;
  node : string;
  clock_ps : float option;
  inject : Fault.plan;
  crash_workers : int;
  fault_seed : int;
  retries : int;
}

type t = { jobs : job list; weights : (string * float) list }

let default_job =
  {
    index = 0;
    design = "";
    tenant = "default";
    priority = 1;
    preset = Flow.Open_flow;
    node = "edu130";
    clock_ps = None;
    inject = [];
    crash_workers = 0;
    fault_seed = 1;
    retries = Guard.default_policy.Guard.max_retries;
  }

let preset_of_string = function
  | "open" -> Ok Flow.Open_flow
  | "commercial" -> Ok Flow.Commercial_flow
  | "teaching" -> Ok Flow.Teaching_flow
  | other -> Error (Printf.sprintf "unknown preset %s (open|commercial|teaching)" other)

let parse_string ?(source = "<manifest>") text =
  let fail = Linedsl.fail and key_value = Linedsl.key_value in
  let weights = ref [] in
  let jobs = ref [] in
  (* a tenant directive: "tenant NAME [weight=W]" *)
  let parse_tenant lineno = function
    | name :: rest ->
      if List.mem_assoc name !weights then fail lineno "tenant %s declared twice" name;
      let weight = ref 1.0 in
      List.iter
        (fun tok ->
          match key_value tok with
          | Some ("weight", v) -> (
            match float_of_string_opt v with
            | Some w when w > 0.0 -> weight := w
            | _ -> fail lineno "tenant %s: weight must be a positive number, got %S" name v)
          | Some (k, _) -> fail lineno "tenant %s: unknown key %s" name k
          | None -> fail lineno "tenant %s: expected key=value, got %S" name tok)
        rest;
      weights := (name, !weight) :: !weights
    | [] -> fail lineno "tenant directive needs a name"
  in
  let int_field lineno key v ~min =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ -> fail lineno "%s must be an integer >= %d, got %S" key min v
  in
  let parse_job lineno design rest =
    (match Designs.find design with
    | _ -> ()
    | exception Not_found -> fail lineno "unknown design %s" design);
    let job = ref { default_job with design } in
    let repeat = ref 1 in
    List.iter
      (fun tok ->
        match key_value tok with
        | Some ("tenant", v) -> job := { !job with tenant = v }
        | Some ("priority", v) ->
          job := { !job with priority = int_field lineno "priority" v ~min:1 }
        | Some ("preset", v) -> (
          match preset_of_string v with
          | Ok p -> job := { !job with preset = p }
          | Error msg -> fail lineno "%s" msg)
        | Some ("node", v) -> (
          match Pdk.find_node v with
          | _ -> job := { !job with node = v }
          | exception Not_found -> fail lineno "unknown node %s" v)
        | Some ("clock-ps", v) -> (
          match float_of_string_opt v with
          | Some ps when ps > 0.0 -> job := { !job with clock_ps = Some ps }
          | _ -> fail lineno "clock-ps must be a positive number, got %S" v)
        | Some ("inject", v) ->
          let armings =
            List.map
              (fun spec ->
                try Fault.arming_of_string spec
                with Invalid_argument msg -> fail lineno "%s" msg)
              (String.split_on_char ',' v |> List.filter (fun s -> s <> ""))
          in
          job := { !job with inject = armings }
        | Some ("crash-workers", v) ->
          job := { !job with crash_workers = int_field lineno "crash-workers" v ~min:0 }
        | Some ("seed", v) ->
          job := { !job with fault_seed = int_field lineno "seed" v ~min:0 }
        | Some ("retries", v) ->
          job := { !job with retries = int_field lineno "retries" v ~min:0 }
        | Some ("repeat", v) -> repeat := int_field lineno "repeat" v ~min:1
        | Some (k, _) -> fail lineno "unknown key %s" k
        | None -> fail lineno "expected key=value, got %S" tok)
      rest;
    for _ = 1 to !repeat do
      jobs := !job :: !jobs
    done
  in
  (try
     List.iter
       (function
         | lineno, "tenant" :: rest -> parse_tenant lineno rest
         | lineno, design :: rest -> parse_job lineno design rest
         | _, [] -> ())
       (Linedsl.lines text)
   with Linedsl.Error (lineno, msg) ->
     invalid_arg (Printf.sprintf "%s:%d: %s" source lineno msg));
  let jobs = List.rev !jobs in
  if jobs = [] then invalid_arg (Printf.sprintf "%s: manifest declares no jobs" source);
  { jobs = List.mapi (fun index j -> { j with index }) jobs;
    weights = List.rev !weights }

let load ~path =
  parse_string ~source:path (In_channel.with_open_bin path In_channel.input_all)

let job_summary j =
  let opt = Buffer.create 32 in
  (match j.clock_ps with
  | Some ps -> Buffer.add_string opt (Printf.sprintf " clock=%.0fps" ps)
  | None -> ());
  if j.inject <> [] then
    Buffer.add_string opt
      (" inject=" ^ String.concat "," (List.map Fault.arming_to_string j.inject));
  if j.crash_workers > 0 then
    Buffer.add_string opt (Printf.sprintf " crash-workers=%d" j.crash_workers);
  Printf.sprintf "#%d %s@%s %s/%s prio=%d%s" j.index j.design j.node j.tenant
    (Flow.preset_name j.preset) j.priority (Buffer.contents opt)
