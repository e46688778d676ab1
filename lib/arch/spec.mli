(** Spatial-accelerator architecture description.

    An architecture is a linear hierarchy of memory levels, innermost
    (level 0) to outermost (DRAM), as in Timeloop. Sibling per-PE buffers
    (accumulation / weight / input) occupy consecutive levels and bypass
    the tensors they do not store — the paper's constant matrix [B]
    (Table IV). Levels with [fanout > 1] are spatial levels: loop factors
    mapped spatially there run on parallel instances (MACs within a PE,
    PEs across the NoC). *)

type level = {
  lname : string;
  capacity_bytes : int;  (** per instance; [max_int] for DRAM *)
  stores : Dims.tensor list;  (** row of the constant matrix B *)
  fanout : int;  (** spatial resources S_I available at this level *)
  bandwidth_words : float;  (** words/cycle between this level and its child *)
  energy_pj : float;  (** energy per word access *)
}

type noc = {
  mesh_x : int;
  mesh_y : int;
  flit_bits : int;
  router_latency : int;  (** cycles per hop through a router *)
  link_latency : int;  (** cycles per inter-router link *)
  multicast : bool;
  queue_depth : int;  (** wormhole input-queue depth in flits *)
  hop_energy_pj : float;  (** per flit per hop *)
}

type dram = {
  banks : int;
  row_bytes : int;
  t_row_hit : int;  (** cycles for a burst hitting the open row *)
  t_row_miss : int;  (** cycles including precharge + activate *)
  burst_bytes : int;
  dram_bandwidth_words : float;  (** words/cycle toward the global buffer *)
}

(** A spec is never mutated after it is built, [levels] included ({!key}
    is memoized by physical identity): derive a variant as a copy. *)
type t = {
  aname : string;
  levels : level array;  (** index 0 = innermost *)
  noc_level : int;  (** level whose fanout is the PE array (NoC boundary) *)
  mac_level : int;  (** level whose fanout is the per-PE MAC array *)
  noc : noc;
  dram : dram;
  mac_energy_pj : float;
  precision_bits : Dims.tensor -> int;
}

val level_count : t -> int
val dram_level : t -> int
(** Index of the outermost (DRAM) level. *)

val stores : t -> int -> Dims.tensor -> bool
(** [stores arch i v]: the B matrix. *)

val capacity_words : t -> int -> Dims.tensor -> float
(** Capacity of level [i] in elements of tensor [v], after dividing shared
    buffers evenly among the tensors they store. [infinity] for DRAM. *)

val num_pes : t -> int

val key : t -> string
(** Canonical single-line content key over every scheduling-relevant field
    (levels, NoC, DRAM, energies, precisions — floats in hex), with the
    display [aname] excluded. Equal keys mean interchangeable architectures;
    used for schedule-cache fingerprints. Rendered once per spec value for
    the first 16 specs keyed; later ones are rendered on every call. *)

val baseline : t
(** Table V: 4x4 mesh of PEs; 64 MACs, 64 B registers, 3 KB accumulation
    buffer, 32 KB weight buffer, 8 KB input buffer per PE; 128 KB global
    buffer; wormhole X-Y mesh with multicast; 8-bit weights/inputs, 24-bit
    partial sums. *)

val pe64 : t
(** Fig 9a variant: 8x8 PE array with doubled on-chip and DRAM bandwidth. *)

val big_sram : t
(** Fig 9b variant: local buffers doubled, global buffer x8. *)

val edge : t
(** Edge-class variant: 2x2 PE array, halved local buffers, quarter global
    buffer, half DRAM bandwidth. *)

val variants : (string * t) list

val to_string : t -> string
