(** The inputs each workload may draw, and why each workload exists. *)

type design = {
  label : string;  (** catalogue name, or the generator call's label *)
  build : unit -> Educhip_netlist.Netlist.t;  (** elaborate the RTL *)
}

val node_name : string
(** Every workload runs at ["edu130"]. *)

val node : unit -> Educhip_pdk.Pdk.node

val commercial : design list
(** [cold_commercial]: at [Commercial_flow], default clock. *)

val large_open : design list
(** [cold_large_open]: a 64-bit Kogge-Stone adder and two crossbars
    at [Open_flow]. *)

val served : design list
(** [serve_mixed]: the designs requests name. *)

val served_presets : Educhip_flow.Flow.preset list

val default_clock_ps : Educhip_flow.Flow.preset -> float
(** The clock [Flow.config] picks for a preset at {!node_name}. *)

val delta_clocks : Educhip_flow.Flow.preset -> float list
(** The clocks a [delta] request may set for a preset. *)
