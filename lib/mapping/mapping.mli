(** Concrete schedules: the object every scheduler produces and every
    evaluation platform consumes.

    A mapping assigns, for each memory level of an architecture, an ordered
    list of temporal loops (outermost first) and a set of spatial loops.
    The product of a dimension's bounds across all levels equals the
    layer's padded loop bound. *)

type loop = { dim : Dims.dim; bound : int }

type level_map = {
  temporal : loop list;  (** outermost first *)
  spatial : loop list;
}

type t = {
  layer : Layer.t;
  levels : level_map array;  (** one entry per architecture level, 0 = innermost *)
}

val make : Layer.t -> level_map array -> t

val dim_product : t -> upto:int -> Dims.dim -> int
(** Product of all (temporal and spatial) bounds of [dim] at levels
    strictly below [upto]. This is the tile extent of that dimension as
    seen by buffer level [upto] (Eq. 2's inner product). *)

val dim_prefix : t -> int array
(** Every {!dim_product} of a mapping in one pass, read by {!prefix_product}. *)

val prefix_product : t -> int array -> upto:int -> Dims.dim -> int
(** [prefix_product t (dim_prefix t) ~upto d] is [dim_product t ~upto d]. *)

val spatial_product : t -> int -> int
(** Product of all spatial bounds at a level. *)

val temporal_product : t -> int -> int

val tile_words : Spec.t -> t -> int -> Dims.tensor -> float
(** Exact tile footprint (elements) of a tensor held at a buffer level,
    including the input-activation sliding-window halo and stride. *)

val tile_of_prefix : t -> int array -> int -> Dims.tensor -> float
(** [tile_of_prefix t (dim_prefix t) i v] is [tile_words arch t i v]. *)

type violation =
  | Bad_factorization of Dims.dim * int * int  (** dim, product, padded bound *)
  | Spatial_overflow of int * int * int  (** level, used, fanout *)
  | Buffer_overflow of int * Dims.tensor * float * float  (** level, tensor, words, cap *)

val validate : Spec.t -> t -> violation list
(** Empty list iff the mapping is valid on the architecture. Raises
    [Robust.Failure.Error (Invalid_input _)] when the mapping's level count
    does not match the architecture's. *)

val is_valid : Spec.t -> t -> bool

val violation_to_string : violation -> string

val total_temporal : t -> int
(** Product of every temporal bound across all levels: the per-MAC compute
    cycle count under a perfectly-utilised pipeline. *)

val pe_count_used : Spec.t -> t -> int
(** Spatial product at the NoC level (PEs actually occupied). *)

val to_loop_nest : Spec.t -> t -> string
(** Listing-1-style rendering of the schedule. *)

val fingerprint : t -> string
(** Canonical string for deduplication in search-based mappers. *)
