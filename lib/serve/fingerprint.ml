(* Content-addressed request keys for the schedule cache.

   A fingerprint covers everything [Cosa.schedule] is a pure function of:
   the layer shape, the architecture contents, the objective weights, the
   solver strategy, and the certification mode. Time budgets are
   deliberately excluded — a cached schedule is served regardless of how
   much time the original solve was allowed, because the cached artefact is
   (re-)certified, not trusted.

   Two parts: a canonical string (the ground truth, built from
   [Layer.key]/[Spec.key] so workload and arch own their own canonical
   forms) and a stable 64-bit FNV-1a hash of it used for file names and
   table buckets. Equality always compares the full canonical string, so a
   hash collision degrades to a harmless extra compare, never to serving
   the wrong schedule. *)

type t = { hash : string; canon : string }

(* FNV-1a, fixed offset basis and prime: stable across OCaml versions and
   architectures (unlike [Hashtbl.hash]), which an on-disk cache needs.
   A plain loop keeps the state unboxed. *)
let fnv1a_64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        1099511628211L
  done;
  Printf.sprintf "%016Lx" !h

(* Everything in the canonical string after the layer:
   "|arch=…|weights=…|strategy=…|certify=…", rendered once per config. *)
type context = string

let context ~weights ~strategy ~certify arch =
  let fl = Printf.sprintf "%h" in
  String.concat "|"
    [ ""; "arch=" ^ Spec.key arch;
      Printf.sprintf "weights=%s,%s,%s" (fl weights.Cosa.w_util) (fl weights.Cosa.w_comp)
        (fl weights.Cosa.w_traf);
      "strategy=" ^ Cosa.strategy_to_string strategy;
      "certify=" ^ Cosa.certify_mode_to_string certify ]

let of_layer ctx layer =
  let canon = "layer=" ^ Layer.key layer ^ ctx in
  { hash = fnv1a_64 canon; canon }

let make ~weights ~strategy ~certify arch layer =
  of_layer (context ~weights ~strategy ~certify arch) layer

let hash t = t.hash
let canon t = t.canon
let equal a b = String.equal a.canon b.canon
let to_string t = t.hash

(* Does this fingerprint's canonical form carry exactly these objective
   weights and this strategy token? The check renders the
   "weights=…|strategy=…" segment exactly as [make] renders it (C99 hex
   floats, bit-exact) and matches it as a substring, anchored by the
   trailing "|certify=" field. Used by the warm-peer tier: a remote
   record's provenance meta must name the weights/strategy of the cache
   key it is about to be served from and stored under — a peer running a
   different objective config must not poison the local tier with
   schedules whose meta contradicts their key. *)
let covers t ~weights:(wu, wc, wt) ~strategy =
  let fl = Printf.sprintf "%h" in
  let needle =
    Printf.sprintf "|weights=%s,%s,%s|strategy=%s|certify=" (fl wu) (fl wc) (fl wt)
      strategy
  in
  let n = String.length t.canon and m = String.length needle in
  let rec from i j = j = m || (t.canon.[i + j] = needle.[j] && from i (j + 1)) in
  let rec at i = i + m <= n && (from i 0 || at (i + 1)) in
  at 0
