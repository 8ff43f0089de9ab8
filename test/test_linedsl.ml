(* Tests for the shared line-DSL lexer (lib/util/linedsl.ml) and the
   three formats that sit on it: campaign manifests, alert rules and
   cluster specs. The property checks that layout noise — blank lines,
   comment-only lines, trailing comments, space/tab runs — never changes
   what a file means, and only shifts the line number an error names. *)

module Linedsl = Educhip_util.Linedsl
module Manifest = Educhip_sched.Manifest
module Rules = Educhip_mon.Rules
module Spec = Educhip_cluster.Spec

let check = Alcotest.check

let test_lines () =
  check
    Alcotest.(list (pair int (list string)))
    "numbered tokens, comments and blanks dropped"
    [ (2, [ "a"; "k=v" ]); (4, [ "b" ]); (5, [ "c"; "d" ]) ]
    (Linedsl.lines "# header\n a\t\tk=v  # note\n  \t\nb#x\n\tc \t d\n");
  check
    Alcotest.(option (pair string string))
    "split at the first =" (Some ("k", "v=w")) (Linedsl.key_value "k=v=w");
  check Alcotest.(option (pair string string)) "empty key" None (Linedsl.key_value "=v");
  check Alcotest.(option (pair string string)) "no =" None (Linedsl.key_value "kv");
  match Linedsl.fail 7 "bad %s" "thing" with
  | () -> Alcotest.fail "fail returned"
  | exception Linedsl.Error (n, msg) ->
    check Alcotest.(pair int string) "typed error" (7, "bad thing") (n, msg)

(* {1 Layout noise is invisible} *)

(* One format under test: its clean directives as token lists, a line
   it rejects (spliced in at [bad_at]), structural equality of two
   parses, and the line number a rejected text's error names. *)
type format = {
  name : string;
  clean : string list list;
  bad : string list;
  bad_at : int;
  same : string -> string -> bool;
  error_line : string -> int option;
}

(* the N of an [Invalid_argument "SOURCE:N: ..."] *)
let raised_line source parse text =
  match parse text with
  | _ -> None
  | exception Invalid_argument msg ->
    Option.join
      (Scanf.sscanf_opt msg "%s@:%d:" (fun s n -> if s = source then Some n else None))

let formats =
  [
    {
      name = "manifest";
      clean =
        [
          [ "tenant"; "uni-a"; "weight=2" ];
          [ "gray8"; "tenant=uni-a"; "preset=commercial"; "priority=2" ];
          [ "counter"; "inject=flow.routing:crash@1"; "retries=2"; "repeat=2" ];
        ];
      bad = [ "gray8"; "preset=fast" ];
      bad_at = 1;
      same = (fun a b -> Manifest.parse_string a = Manifest.parse_string b);
      error_line = raised_line "<manifest>" Manifest.parse_string;
    };
    {
      name = "rules";
      clean =
        [
          [ "alert"; "reject-storm"; "metric=stats.rejects{reason=rate_limited}"; "fn=rate";
            "window=1s"; "op=>"; "value=0.5"; "for=1s"; "resolve=500ms"; "severity=page" ];
          [ "slo-burn"; "adv-burn"; "tier=advanced"; "threshold=1.5"; "for=2s" ];
        ];
      bad = [ "alert"; "a"; "metric=m"; "op=!="; "value=1" ];
      bad_at = 1;
      same = (fun a b -> Rules.parse_string a = Rules.parse_string b);
      error_line = raised_line "<rules>" Rules.parse_string;
    };
    {
      name = "spec";
      clean =
        [
          [ "replica"; "r1"; "/tmp/r1.sock" ];
          [ "replica"; "r2"; "10.0.0.7:7080" ];
          [ "vnodes"; "32" ];
          [ "staleness-ms"; "1500" ];
        ];
      bad = [ "vnodes"; "zero" ];
      bad_at = 2;
      same = (fun a b -> Spec.parse a = Spec.parse b);
      error_line =
        (fun text ->
          match Spec.parse text with
          | Ok _ -> None
          | Error msg -> Scanf.sscanf_opt msg "line %d:" Fun.id);
    };
  ]

let with_bad f =
  List.filteri (fun i _ -> i < f.bad_at) f.clean
  @ (f.bad :: List.filteri (fun i _ -> i >= f.bad_at) f.clean)

let plain lines = String.concat "\n" (List.map (String.concat " ") lines) ^ "\n"

(* Noise generators over QCheck's state. Comment text may hold
   anything but a newline, including further [#], [=] and tabs. *)
let pick st chars = chars.[Random.State.int st (String.length chars)]
let blank_run st = String.init (Random.State.int st 3) (fun _ -> pick st " \t")
let sep_run st = String.init (1 + Random.State.int st 3) (fun _ -> pick st " \t")
let comment st = "#" ^ String.init (Random.State.int st 10) (fun _ -> pick st " \t#=abc{}")

let noise_line st =
  match Random.State.int st 3 with
  | 0 -> ""
  | 1 -> blank_run st
  | _ -> blank_run st ^ comment st

let noisy_line st toks =
  let body = List.mapi (fun i t -> (if i > 0 then sep_run st else "") ^ t) toks in
  let tail = if Random.State.bool st then "" else comment st in
  blank_run st ^ String.concat "" body ^ blank_run st ^ tail

(* The noisy text, and per directive the noise lines inserted above it. *)
let render st lines =
  let buf = Buffer.create 256 in
  let add l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  let inserted = ref 0 in
  let shifts =
    List.map
      (fun toks ->
        for _ = 1 to Random.State.int st 3 do
          add (noise_line st);
          incr inserted
        done;
        add (noisy_line st toks);
        !inserted)
      lines
  in
  for _ = 1 to Random.State.int st 3 do add (noise_line st) done;
  (Buffer.contents buf, shifts)

(* per format: (noisy clean text, noisy text with the bad line, noise above the bad line) *)
let noise_arb =
  QCheck.make
    ~print:(fun cases ->
      String.concat "\n"
        (List.map2
           (fun f (good, bad, shift) ->
             Printf.sprintf "%s: %S\n  bad (+%d): %S" f.name good shift bad)
           formats cases))
    (fun st ->
      List.map
        (fun f ->
          let good, _ = render st f.clean in
          let bad, shifts = render st (with_bad f) in
          (good, bad, List.nth shifts f.bad_at))
        formats)

let prop_noise_invisible =
  QCheck.Test.make ~name:"layout noise never changes a parse, only error lines"
    ~count:300 noise_arb (fun cases ->
      List.for_all2
        (fun f (good, bad, shift) ->
          let clean_line = f.error_line (plain (with_bad f)) in
          if not (f.same (plain f.clean) good) then
            QCheck.Test.fail_reportf "%s: noisy text parses differently" f.name
          else if clean_line <> Some (f.bad_at + 1) then
            QCheck.Test.fail_reportf "%s: clean bad line not reported at %d" f.name
              (f.bad_at + 1)
          else if f.error_line bad <> Some (f.bad_at + 1 + shift) then
            QCheck.Test.fail_reportf "%s: expected error at line %d, got %s" f.name
              (f.bad_at + 1 + shift)
              (Option.fold ~none:"none" ~some:string_of_int (f.error_line bad))
          else true)
        formats cases)

let suite =
  [
    Alcotest.test_case "lines, key_value and fail" `Quick test_lines;
    QCheck_alcotest.to_alcotest prop_noise_invisible;
  ]
