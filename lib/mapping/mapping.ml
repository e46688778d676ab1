type loop = { dim : Dims.dim; bound : int }

type level_map = { temporal : loop list; spatial : loop list }

type t = { layer : Layer.t; levels : level_map array }

let make layer levels = { layer; levels }

let rec mul_into pre o = function
  | [] -> ()
  | l :: rest ->
    let j = o + Dims.dim_index l.dim in
    pre.(j) <- pre.(j) * l.bound;
    mul_into pre o rest

(* Every [dim_product] in one pass: entry [i * 7 + Dims.dim_index d] is the
   product of [d]'s bounds at levels [0, i), for i in [0, levels]. *)
let dim_prefix t =
  let n = Array.length t.levels in
  let pre = Array.make ((n + 1) * 7) 1 in
  for i = 0 to n - 1 do
    let o = (i + 1) * 7 in
    Array.blit pre (i * 7) pre o 7;
    mul_into pre o t.levels.(i).temporal;
    mul_into pre o t.levels.(i).spatial
  done;
  pre

(* where the products of levels [0, upto) start in [dim_prefix t] *)
let row t upto = 7 * max 0 (min upto (Array.length t.levels))

let at pre o d = pre.(o + Dims.dim_index d)

let prefix_product t pre ~upto d = at pre (row t upto) d

let dim_product t ~upto d = prefix_product t (dim_prefix t) ~upto d

let spatial_product t i =
  List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).spatial

let temporal_product t i =
  List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).temporal

(* Tile extent of tensor [v] as held by buffer level [i]: the product of its
   relevant dimension tiles below [i]. IA gets the exact sliding-window
   extent ((p-1)*stride + r per axis). *)
let tile_of_prefix t pre i v =
  let o = row t i and stride = t.layer.Layer.stride in
  match v with
  | Dims.W -> float_of_int (at pre o Dims.R * at pre o Dims.S * at pre o Dims.C * at pre o Dims.K)
  | Dims.OA -> float_of_int (at pre o Dims.P * at pre o Dims.Q * at pre o Dims.K * at pre o Dims.N)
  | Dims.IA ->
    let w = ((at pre o Dims.P - 1) * stride) + at pre o Dims.R in
    let h = ((at pre o Dims.Q - 1) * stride) + at pre o Dims.S in
    float_of_int (w * h * at pre o Dims.C * at pre o Dims.N)

let tile_words _arch t i v = tile_of_prefix t (dim_prefix t) i v

type violation =
  | Bad_factorization of Dims.dim * int * int
  | Spatial_overflow of int * int * int
  | Buffer_overflow of int * Dims.tensor * float * float

let validate arch t =
  let nlev = Array.length t.levels in
  let violations = ref [] in
  if nlev <> Spec.level_count arch then
    (* typed, not [Invalid_argument]: validate runs inside the scheduling
       pipeline, which surfaces every failure as a [Robust.Failure.t] *)
    raise
      (Robust.Failure.Error
         (Robust.Failure.Invalid_input
            "Mapping.validate: level count mismatch with architecture"));
  let pre = dim_prefix t in
  List.iter
    (fun d ->
      let prod = prefix_product t pre ~upto:nlev d in
      let expect = Layer.padded_bound t.layer d in
      if prod <> expect then violations := Bad_factorization (d, prod, expect) :: !violations)
    Dims.all_dims;
  for i = 0 to nlev - 1 do
    let used = spatial_product t i in
    let fanout = arch.Spec.levels.(i).Spec.fanout in
    if used > fanout then violations := Spatial_overflow (i, used, fanout) :: !violations
  done;
  for i = 0 to nlev - 1 do
    if i <> Spec.dram_level arch then
      List.iter
        (fun v ->
          if Spec.stores arch i v then begin
            let words = tile_of_prefix t pre i v in
            let cap = Spec.capacity_words arch i v in
            if words > cap then violations := Buffer_overflow (i, v, words, cap) :: !violations
          end)
        Dims.all_tensors
  done;
  List.rev !violations

let is_valid arch t = validate arch t = []

let violation_to_string = function
  | Bad_factorization (d, prod, expect) ->
    Printf.sprintf "dim %s factors to %d, expected %d" (Dims.dim_name d) prod expect
  | Spatial_overflow (i, used, fanout) ->
    Printf.sprintf "level %d spatial %d exceeds fanout %d" i used fanout
  | Buffer_overflow (i, v, words, cap) ->
    Printf.sprintf "level %d tensor %s tile %.0f words exceeds capacity %.0f" i
      (Dims.tensor_name v) words cap

let total_temporal t =
  let acc = ref 1 in
  Array.iter (fun lm -> List.iter (fun l -> acc := !acc * l.bound) lm.temporal) t.levels;
  !acc

let pe_count_used arch t = spatial_product t arch.Spec.noc_level

let to_loop_nest arch t =
  let buf = Buffer.create 512 in
  let indent = ref 0 in
  let pad () = String.make (2 * !indent) ' ' in
  for i = Array.length t.levels - 1 downto 0 do
    let lm = t.levels.(i) in
    Buffer.add_string buf
      (Printf.sprintf "%s// %s\n" (pad ()) arch.Spec.levels.(i).Spec.lname);
    List.iter
      (fun l ->
        if l.bound > 1 then begin
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s in [0:%d)\n" (pad ()) (Dims.dim_name l.dim) l.bound);
          incr indent
        end)
      lm.temporal;
    List.iter
      (fun l ->
        if l.bound > 1 then begin
          Buffer.add_string buf
            (Printf.sprintf "%sspatial_for %s in [0:%d)\n" (pad ()) (Dims.dim_name l.dim)
               l.bound);
          incr indent
        end)
      lm.spatial
  done;
  Buffer.add_string buf (Printf.sprintf "%sO[n,k,p,q] += W[k,c,r,s] * I[n,c,..]\n" (pad ()));
  Buffer.contents buf

let fingerprint t =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i lm ->
      Buffer.add_string buf (Printf.sprintf "L%d[" i);
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "%s%d " (Dims.dim_name l.dim) l.bound))
        lm.temporal;
      Buffer.add_string buf "|";
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "%s%d " (Dims.dim_name l.dim) l.bound))
        lm.spatial;
      Buffer.add_string buf "]")
    t.levels;
  Buffer.contents buf
