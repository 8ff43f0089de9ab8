module Flow = Educhip_flow.Flow

type key = { design : string; preset : string; node : string; clock_ps : float }
type entry = { ppa : Flow.ppa; verdict : string }
type t = (string, entry) Hashtbl.t

let key_string k = Printf.sprintf "%s %s %s %h" k.design k.preset k.node k.clock_ps

let line k e =
  let p = e.ppa in
  Printf.sprintf "%s %h %d %h %h %h %h %b %s" (key_string k) p.Flow.area_um2 p.Flow.cells
    p.Flow.fmax_mhz p.Flow.wns_ps p.Flow.total_power_uw p.Flow.wirelength_um
    p.Flow.drc_clean e.verdict

let parse_line s =
  match String.split_on_char ' ' (String.trim s) with
  | [ design; preset; node; clock; area; cells; fmax; wns; power; wl; drc; verdict ] ->
    let f = float_of_string in
    ( key_string { design; preset; node; clock_ps = f clock },
      {
        ppa =
          {
            Flow.area_um2 = f area;
            cells = int_of_string cells;
            fmax_mhz = f fmax;
            wns_ps = f wns;
            total_power_uw = f power;
            wirelength_um = f wl;
            drc_clean = bool_of_string drc;
          };
        verdict;
      } )
  | _ -> failwith (Printf.sprintf "golden: malformed line %S" s)

let of_lines lines =
  let t = Hashtbl.create 256 in
  List.iter
    (fun l ->
      if String.trim l <> "" && l.[0] <> '#' then begin
        let k, e = parse_line l in
        Hashtbl.replace t k e
      end)
    lines;
  t

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> of_lines

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check t k ~ppa ~verdict =
  let ks = key_string k in
  match (Hashtbl.find_opt t ks, ppa) with
  | None, _ -> Error (Printf.sprintf "%s: not in the golden file" ks)
  | Some _, None -> Error (Printf.sprintf "%s: no PPA (verdict %s)" ks verdict)
  | Some g, Some p ->
    let fields =
      [
        ("area_um2", same_float g.ppa.Flow.area_um2 p.Flow.area_um2);
        ("cells", g.ppa.Flow.cells = p.Flow.cells);
        ("fmax_mhz", same_float g.ppa.Flow.fmax_mhz p.Flow.fmax_mhz);
        ("wns_ps", same_float g.ppa.Flow.wns_ps p.Flow.wns_ps);
        ("total_power_uw", same_float g.ppa.Flow.total_power_uw p.Flow.total_power_uw);
        ("wirelength_um", same_float g.ppa.Flow.wirelength_um p.Flow.wirelength_um);
        ("drc_clean", g.ppa.Flow.drc_clean = p.Flow.drc_clean);
        ("verdict", g.verdict = verdict);
      ]
    in
    match List.filter (fun (_, ok) -> not ok) fields with
    | [] -> Ok ()
    | bad ->
      Error
        (Printf.sprintf "%s: %s differ (golden %s, got %s)" ks
           (String.concat "," (List.map fst bad))
           (line k g)
           (line k { ppa = p; verdict }))
