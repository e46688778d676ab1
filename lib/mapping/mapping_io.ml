let dim_of_name = function
  | "R" -> Some Dims.R
  | "S" -> Some Dims.S
  | "P" -> Some Dims.P
  | "Q" -> Some Dims.Q
  | "C" -> Some Dims.C
  | "K" -> Some Dims.K
  | "N" -> Some Dims.N
  | _ -> None

(* One [Buffer] and [string_of_int]: the bytes of [Printf]'s %d at a
   fraction of its cost on the daemon's per-layer records. *)
let add_loops buf loops =
  List.iteri
    (fun i (l : Mapping.loop) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Dims.dim_name l.Mapping.dim);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int l.Mapping.bound))
    loops

let add_mapping buf (m : Mapping.t) =
  let l = m.Mapping.layer and i = string_of_int in
  List.iter (Buffer.add_string buf)
    [ "layer "; l.Layer.name; " r="; i l.Layer.r; " s="; i l.Layer.s; " p="; i l.Layer.p;
      " q="; i l.Layer.q; " c="; i l.Layer.c; " k="; i l.Layer.k; " n="; i l.Layer.n;
      " stride="; i l.Layer.stride; "\n" ];
  Array.iteri
    (fun n lm ->
      Buffer.add_string buf ("level " ^ i n);
      let clause what loops = if loops <> [] then (Buffer.add_string buf what; add_loops buf loops) in
      clause " temporal " lm.Mapping.temporal;
      clause " spatial " lm.Mapping.spatial;
      Buffer.add_char buf '\n')
    m.Mapping.levels

let render f =
  let buf = Buffer.create 768 in
  f buf;
  Buffer.contents buf

let to_string m = render (fun buf -> add_mapping buf m)

let parse_loops s =
  if String.trim s = "" then Ok []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest ->
        (match String.split_on_char ':' (String.trim part) with
         | [ dname; bound ] ->
           (match (dim_of_name dname, int_of_string_opt bound) with
            | Some dim, Some b when b > 0 ->
              go ({ Mapping.dim; bound = b } :: acc) rest
            | Some _, Some b -> Error (Printf.sprintf "non-positive bound %d" b)
            | None, _ -> Error (Printf.sprintf "unknown dimension %S" dname)
            | Some _, None -> Error (Printf.sprintf "bad bound in %S" part))
         | _ -> Error (Printf.sprintf "malformed loop %S" part))
    in
    go [] parts

let parse_kv key s =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  if String.length s > n && String.starts_with ~prefix s then
    int_of_string_opt (String.sub s n (String.length s - n))
  else None

let ( let* ) r f = Result.bind r f

let parse_layer_line line =
  match String.split_on_char ' ' line with
  | "layer" :: name :: kvs ->
    let find key =
      match List.find_map (parse_kv key) kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing %s= in layer line" key)
    in
    let* r = find "r" in
    let* s = find "s" in
    let* p = find "p" in
    let* q = find "q" in
    let* c = find "c" in
    let* k = find "k" in
    let* n = find "n" in
    let* stride = find "stride" in
    (try Ok (Layer.create ~name ~stride ~r ~s ~p ~q ~c ~k ~n ())
     with Invalid_argument msg -> Error msg)
  | _ -> Error "first line must start with 'layer <name> ...'"

(* split "temporal A spatial B" into its two optional clauses *)
let parse_level_clauses rest =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' rest) in
  let rec go mode t sp = function
    | [] -> Ok (String.concat " " (List.rev t), String.concat " " (List.rev sp))
    | "temporal" :: more -> go `T t sp more
    | "spatial" :: more -> go `S t sp more
    | w :: more ->
      (match mode with
       | `T -> go mode (w :: t) sp more
       | `S -> go mode t (w :: sp) more
       | `None -> Error (Printf.sprintf "unexpected token %S in level line" w))
  in
  go `None [] [] words

(* The mapping body as lines; each is trimmed once and blank ones are
   dropped. *)
let of_lines lines =
  match
    List.filter_map (fun l -> match String.trim l with "" -> None | t -> Some t) lines
  with
  | [] -> Error "empty input"
  | layer_line :: level_lines ->
    let* layer = parse_layer_line layer_line in
    let rec parse_levels idx acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        (match String.split_on_char ' ' line with
         | "level" :: num :: _ ->
           (match int_of_string_opt num with
            | Some i when i = idx ->
              let prefix = "level " ^ string_of_int i in
              let clause =
                String.sub line (String.length prefix)
                  (String.length line - String.length prefix)
              in
              let* t_str, s_str = parse_level_clauses clause in
              let* temporal = parse_loops t_str in
              let* spatial = parse_loops s_str in
              parse_levels (idx + 1) ({ Mapping.temporal; spatial } :: acc) rest
            | Some i -> Error (Printf.sprintf "level %d out of order (expected %d)" i idx)
            | None -> Error (Printf.sprintf "bad level number in %S" line))
         | _ -> Error (Printf.sprintf "expected 'level <n> ...', got %S" line))
    in
    let* levels = parse_levels 0 [] level_lines in
    if levels = [] then Error "no levels"
    else Ok (Mapping.make layer (Array.of_list levels))

let of_string text = of_lines (String.split_on_char '\n' text)

let save path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let load path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))
  | exception Sys_error e -> Error e

(* ---- provenance-carrying records ------------------------------------- *)

type meta = {
  weights : (float * float * float) option;
  strategy : string;
  source : string;
  verdict : string;
  objective : (float * float * float * float) option;
  solve_time : float;
}

let default_meta =
  { weights = None; strategy = ""; source = ""; verdict = ""; objective = None;
    solve_time = 0. }

(* Floats are rendered in C99 hex notation ("%h") and parsed back with
   [float_of_string], which round-trips every finite double bit-exactly —
   a schedule cache must reproduce objective values, not approximate
   them. *)
let fl = Printf.sprintf "%h"

let add_meta buf m =
  let line key words =
    Buffer.add_string buf key;
    List.iter (fun w -> Buffer.add_char buf ' '; Buffer.add_string buf w) words;
    Buffer.add_char buf '\n'
  in
  let text key v = if v <> "" then line key [ v ] in
  Option.iter (fun (u, c, t) -> line "@weights" (List.map fl [ u; c; t ])) m.weights;
  text "@strategy" m.strategy;
  text "@source" m.source;
  text "@certification" m.verdict;
  Option.iter (fun (u, c, t, z) -> line "@objective" (List.map fl [ u; c; t; z ])) m.objective;
  if m.solve_time <> 0. then line "@solve-time" [ fl m.solve_time ]

let record_to_string meta m = render (fun buf -> add_meta buf meta; add_mapping buf m)

let parse_floats what s k =
  let parts = List.filter (( <> ) "") (String.split_on_char ' ' s) in
  match List.map float_of_string_opt parts with
  | fs when List.for_all Option.is_some fs -> k (List.map Option.get fs)
  | _ -> Error (Printf.sprintf "bad float in @%s line" what)

let parse_meta_line meta line =
  match String.index_opt line ' ' with
  | None -> Error (Printf.sprintf "malformed metadata line %S" line)
  | Some i ->
    let key = String.sub line 1 (i - 1) in
    let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    (match key with
     | "weights" ->
       parse_floats key rest (function
         | [ u; c; t ] -> Ok { meta with weights = Some (u, c, t) }
         | _ -> Error "@weights needs three values")
     | "strategy" -> Ok { meta with strategy = rest }
     | "source" -> Ok { meta with source = rest }
     | "certification" -> Ok { meta with verdict = rest }
     | "objective" ->
       parse_floats key rest (function
         | [ u; c; t; total ] -> Ok { meta with objective = Some (u, c, t, total) }
         | _ -> Error "@objective needs four values")
     | "solve-time" ->
       parse_floats key rest (function
         | [ t ] -> Ok { meta with solve_time = t }
         | _ -> Error "@solve-time needs one value")
     | k -> Error (Printf.sprintf "unknown metadata key @%s" k))

(* Metadata lines, then the mapping body, from one split of [text]. *)
let record_of_string text =
  let rec peel meta = function
    | line :: rest ->
      let t = String.trim line in
      if t = "" then peel meta rest
      else if t.[0] = '@' then
        let* meta = parse_meta_line meta t in
        peel meta rest
      else body meta (t :: rest)
    | [] -> body meta []
  and body meta lines =
    let* m = of_lines lines in
    Ok (meta, m)
  in
  peel default_meta (String.split_on_char '\n' text)

let save_record path meta m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (record_to_string meta m))

let load_record path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> record_of_string (really_input_string ic (in_channel_length ic)))
  | exception Sys_error e -> Error e
