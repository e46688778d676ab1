type t = {
  name : string;
  r : int;
  s : int;
  p : int;
  q : int;
  c : int;
  k : int;
  n : int;
  stride : int;
}

let label_of ~r ~p ~c ~k ~stride = Printf.sprintf "%d_%d_%d_%d_%d" r p c k stride

let create ?name ?(stride = 1) ~r ~s ~p ~q ~c ~k ~n () =
  let check what v = if v < 1 then invalid_arg (Printf.sprintf "Layer.create: %s = %d < 1" what v) in
  check "r" r; check "s" s; check "p" p; check "q" q;
  check "c" c; check "k" k; check "n" n; check "stride" stride;
  let name = match name with Some n -> n | None -> label_of ~r ~p ~c ~k ~stride in
  { name; r; s; p; q; c; k; n; stride }

let gemm ?name ~m ~n ~k () =
  let name = match name with Some s -> s | None -> Printf.sprintf "gemm_%dx%dx%d" m n k in
  create ~name ~r:1 ~s:1 ~p:n ~q:1 ~c:k ~k:m ~n:1 ()

let bound t = function
  | Dims.R -> t.r
  | Dims.S -> t.s
  | Dims.P -> t.p
  | Dims.Q -> t.q
  | Dims.C -> t.c
  | Dims.K -> t.k
  | Dims.N -> t.n

let padded_bound t d = Prim.Factorize.pad_to_factorable (bound t d)

let macs t = t.r * t.s * t.p * t.q * t.c * t.k * t.n

let input_width t = ((t.p - 1) * t.stride) + t.r
let input_height t = ((t.q - 1) * t.stride) + t.s

let tensor_words t = function
  | Dims.W -> t.r * t.s * t.c * t.k
  | Dims.IA -> input_width t * input_height t * t.c * t.n
  | Dims.OA -> t.p * t.q * t.k * t.n

let factors t =
  List.concat_map
    (fun d ->
      List.map (fun p -> (d, p)) (Prim.Factorize.prime_factors (padded_bound t d)))
    Dims.all_dims

let factor_groups t =
  List.concat_map
    (fun d ->
      List.map (fun (p, m) -> (d, p, m)) (Prim.Factorize.grouped_factors (padded_bound t d)))
    Dims.all_dims

(* "r%d.s%d.p%d.q%d.c%d.k%d.n%d.st%d" for the positive fields [create] allows,
   digit by digit: every cache probe renders it, [Printf] costs 7x more *)
let key t =
  let b = Buffer.create 48 in
  let rec digits v =
    if v > 9 then digits (v / 10);
    Buffer.add_char b (Char.chr (48 + (v mod 10)))
  in
  let field tag v = Buffer.add_string b tag; digits v in
  field "r" t.r; field ".s" t.s; field ".p" t.p; field ".q" t.q;
  field ".c" t.c; field ".k" t.k; field ".n" t.n; field ".st" t.stride;
  Buffer.contents b

let equal_shape a b =
  a.r = b.r && a.s = b.s && a.p = b.p && a.q = b.q && a.c = b.c && a.k = b.k && a.n = b.n
  && a.stride = b.stride

let label t = label_of ~r:t.r ~p:t.p ~c:t.c ~k:t.k ~stride:t.stride

let to_string t =
  Printf.sprintf "%s: R=%d S=%d P=%d Q=%d C=%d K=%d N=%d stride=%d" t.name t.r t.s t.p t.q
    t.c t.k t.n t.stride
