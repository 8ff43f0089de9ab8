module Linedsl = Educhip_util.Linedsl

type t = {
  replicas : (string * string) list;
  vnodes : int;
  seed : int;
  probe_interval_ms : float;
  staleness_ms : float;
}

let default =
  {
    replicas = [];
    vnodes = Ring.default_vnodes;
    seed = 1;
    probe_interval_ms = 1000.0;
    staleness_ms = 5000.0;
  }

let parse text =
  let fail = Linedsl.fail in
  let pos_int ln what s =
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> fail ln "%s wants a positive integer, got %S" what s
  in
  let pos_float ln what s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> x
    | _ -> fail ln "%s wants a positive number, got %S" what s
  in
  let directive acc (ln, toks) =
    match toks with
    | [ "replica"; name; addr ] ->
      if List.mem_assoc name acc.replicas then fail ln "duplicate replica name %S" name
      else { acc with replicas = (name, addr) :: acc.replicas }
    | "replica" :: _ -> fail ln "replica wants exactly NAME ADDR"
    | [ "vnodes"; n ] -> { acc with vnodes = pos_int ln "vnodes" n }
    | [ "hash-seed"; n ] -> (
      match int_of_string_opt n with
      | Some seed -> { acc with seed }
      | None -> fail ln "hash-seed wants an integer, got %S" n)
    | [ "probe-interval-ms"; x ] ->
      { acc with probe_interval_ms = pos_float ln "probe-interval-ms" x }
    | [ "staleness-ms"; x ] -> { acc with staleness_ms = pos_float ln "staleness-ms" x }
    | directive :: _ -> fail ln "unknown directive %S" directive
    | [] -> acc
  in
  match List.fold_left directive default (Linedsl.lines text) with
  | exception Linedsl.Error (ln, msg) -> Error (Printf.sprintf "line %d: %s" ln msg)
  | { replicas = []; _ } -> Error "spec declares no replica"
  | s -> Ok { s with replicas = List.rev s.replicas }

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let ring t = Ring.create ~vnodes:t.vnodes ~seed:t.seed (List.map fst t.replicas)
