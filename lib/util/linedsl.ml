exception Error of int * string

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, tokens (strip_comment line)))
  |> List.filter (fun (_, toks) -> toks <> [])

let key_value tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 ->
    Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> None

let fail lineno fmt = Printf.ksprintf (fun msg -> raise (Error (lineno, msg))) fmt
