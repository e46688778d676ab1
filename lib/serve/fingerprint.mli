(** Content-addressed keys for scheduling requests.

    A fingerprint canonically identifies one [(layer shape, architecture
    contents, weights, strategy, certify mode)] request — everything
    {!Cosa.schedule}'s answer is a function of, built on the name-blind
    canonical forms {!Layer.key} and {!Spec.key}. It carries both a stable
    64-bit hash (for file names and buckets; FNV-1a, identical across OCaml
    versions and machines) and the full canonical string; {!equal} compares
    the string, so hash collisions cost a compare, never a wrong answer. *)

type t

val make :
  weights:Cosa.weights ->
  strategy:Cosa.strategy ->
  certify:Cosa.certify_mode ->
  Spec.t ->
  Layer.t ->
  t

type context
(** The canonical string but the layer, rendered once per config:
    [of_layer (context ~weights ~strategy ~certify arch) l] is
    [make ~weights ~strategy ~certify arch l], byte for byte. *)

val context :
  weights:Cosa.weights -> strategy:Cosa.strategy -> certify:Cosa.certify_mode -> Spec.t -> context

val of_layer : context -> Layer.t -> t

val hash : t -> string
(** 16 hex characters; the cache's on-disk file stem. *)

val canon : t -> string
(** The full canonical request string (single line). *)

val equal : t -> t -> bool
(** Full structural equality on {!canon}. *)

val to_string : t -> string
