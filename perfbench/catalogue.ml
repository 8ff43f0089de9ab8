module Designs = Educhip_designs.Designs
module Flow = Educhip_flow.Flow
module Pdk = Educhip_pdk.Pdk
module Netlist = Educhip_netlist.Netlist

type design = { label : string; build : unit -> Netlist.t }

let node_name = "edu130"
let node () = Pdk.find_node node_name

let of_entry (e : Designs.entry) = { label = e.Designs.name; build = (fun () -> Designs.netlist e) }

(* cold_commercial: the 18 catalogue designs other than cpu16 at the
   commercial preset, one in-process flow at a time. Measured step
   shares of each job (memo stamps, edu130, default clock): placement
   44-93 %, sizing 2-34 %, routing at most 4 %; over a traced run,
   placement 75 %, sizing 14 % and routing 1 % of flow wall time. The
   annealer and gate sizing show here; a routing change must predict no
   change. *)
let commercial =
  List.map of_entry (List.filter (fun e -> e.Designs.name <> "cpu16") Designs.all)

(* cold_large_open: three generator-built designs of 920-1665 mapped
   cells at the open preset, each 2-5 s cold, so a 30 s pass holds two
   or three whole rounds. Measured (memo stamps, edu130, default clock):
   routing is 89 % of kogge64, 90 % of xbar8x6 and 92 % of xbar6x10,
   placement 2-4 %; over a traced run, routing 90 % and placement 3 %.
   cpu16 (routing 96 %, placement 1 %, 14 s) and the 8x8 crossbar
   (95 %, 6 s) route the same way but fit only one round of two jobs.
   An odd number of designs keeps the median inside one design's
   samples rather than on the boundary between two. A routing change
   shows only here; a placement change must predict no change. *)
let large_open =
  let gen label rtl = { label; build = (fun () -> Educhip_rtl.Rtl.elaborate (rtl ())) } in
  [
    gen "kogge64" (fun () -> Educhip_designs.Arith.kogge_stone_adder ~width:64);
    gen "xbar8x6" (fun () -> Designs.crossbar ~ports:8 ~width:6);
    gen "xbar6x10" (fun () -> Designs.crossbar ~ports:6 ~width:10);
  ]

(* serve_mixed: the ten smallest catalogue designs (32-97 mapped cells,
   far under the 750-cell cap) at the open or teaching preset. Their
   in-process flows take 3-36 ms; served, a fresh job takes 17-85 ms and
   a delta 8-38 ms, most of it store writes and artifact decode, so the
   wire, admission, the queue, the caches and the store carry each
   request. The larger designs (alu8, bshift16, fir4x8, ...) take
   75-165 ms served: drawn a few times a run, they alone would move the
   p90. *)
let served =
  List.map
    (fun n -> of_entry (Designs.find n))
    [ "adder8"; "adder16"; "mult4"; "popcount16"; "prio16"; "counter"; "gray8"; "lfsr16";
      "pipe4x8"; "chain64" ]

let served_presets = [ Flow.Open_flow; Flow.Teaching_flow ]

(* a delta resubmits an earlier spec at one of these multiples of its
   preset's default clock *)
let delta_clock_factors = [ 0.8; 0.9; 1.1; 1.25; 1.6 ]

let default_clock_ps preset = (Flow.config ~node:(node ()) preset).Flow.clock_period_ps

let delta_clocks preset =
  List.map (fun f -> f *. default_clock_ps preset) delta_clock_factors
