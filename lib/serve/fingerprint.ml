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
