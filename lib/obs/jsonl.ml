let append_mutex = Mutex.create ()

let append ~path json =
  let line = Jsonout.to_string json ^ "\n" in
  Mutex.protect append_mutex (fun () ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc line;
          flush oc))

let load ~path decode =
  if not (Sys.file_exists path) then ([], 0)
  else
    let entries, dropped =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.fold_left
           (fun ((entries, dropped) as acc) line ->
             if line = "" then acc
             else
               match decode line with
               | Some e -> (e :: entries, dropped)
               | None | (exception Failure _) -> (entries, dropped + 1))
           ([], 0)
    in
    (List.rev entries, dropped)
