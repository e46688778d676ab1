(** A DNN layer as a 7-dimensional nested loop (the paper's target workload).

    Convolutions and matrix multiplications are both expressed this way:
    a GEMM is a convolution with [r = s = 1]. *)

type t = private {
  name : string;
  r : int;  (** filter width *)
  s : int;  (** filter height *)
  p : int;  (** output width *)
  q : int;  (** output height *)
  c : int;  (** input channels *)
  k : int;  (** output channels *)
  n : int;  (** batch size *)
  stride : int;
}

val create :
  ?name:string -> ?stride:int -> r:int -> s:int -> p:int -> q:int -> c:int -> k:int -> n:int ->
  unit -> t
(** Raises [Invalid_argument] on non-positive dimensions or stride. The
    default [name] follows the paper's [R_P_C_K_Stride] convention. *)

val gemm : ?name:string -> m:int -> n:int -> k:int -> unit -> t
(** [gemm ~m ~n ~k] is an [M x K @ K x N] matrix multiply: output channels
    [K_layer = m], spatial [p = n], reduction [c = k]. *)

val bound : t -> Dims.dim -> int
(** Loop bound of a dimension. *)

val padded_bound : t -> Dims.dim -> int
(** Loop bound after padding to a 7-smooth number (the paper pads loop
    bounds that are large primes before factorising). *)

val macs : t -> int
(** Total multiply-accumulates: r*s*p*q*c*k*n. *)

val tensor_words : t -> Dims.tensor -> int
(** Exact data-tensor footprint in elements. IA accounts for stride and the
    sliding window halo. *)

val input_width : t -> int
(** Input activation width [(p-1)*stride + r]. *)

val input_height : t -> int

val factors : t -> (Dims.dim * int) list
(** All prime factors of every padded loop bound, as (dim, prime) pairs,
    dims in index order, primes non-decreasing within a dim. Bounds of 1
    contribute nothing. *)

val factor_groups : t -> (Dims.dim * int * int) list
(** {!factors} grouped as (dim, prime, multiplicity). *)

val key : t -> string
(** Canonical shape key: all seven loop bounds plus the stride, with the
    display [name] deliberately excluded. Two layers with equal keys are
    interchangeable for scheduling — every mapper, the analytical model and
    the certifiers see only the dimensions — so the key is the layer's
    contribution to schedule-cache fingerprints and shape deduplication. *)

val equal_shape : t -> t -> bool
(** Name-blind shape equality: the eight fields {!key} renders, compared
    directly, so it holds exactly when the keys are equal. *)

val label : t -> string
(** The paper's x-axis label: [R_P_C_K_Stride]. *)

val to_string : t -> string
