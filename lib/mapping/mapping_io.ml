let dim_of_name = function
  | "R" -> Some Dims.R
  | "S" -> Some Dims.S
  | "P" -> Some Dims.P
  | "Q" -> Some Dims.Q
  | "C" -> Some Dims.C
  | "K" -> Some Dims.K
  | "N" -> Some Dims.N
  | _ -> None

let loops_to_string loops =
  String.concat ","
    (List.map
       (fun (l : Mapping.loop) ->
         Printf.sprintf "%s:%d" (Dims.dim_name l.Mapping.dim) l.Mapping.bound)
       loops)

let to_string (m : Mapping.t) =
  let buf = Buffer.create 512 in
  let l = m.Mapping.layer in
  Buffer.add_string buf
    (Printf.sprintf "layer %s r=%d s=%d p=%d q=%d c=%d k=%d n=%d stride=%d\n"
       l.Layer.name l.Layer.r l.Layer.s l.Layer.p l.Layer.q l.Layer.c l.Layer.k l.Layer.n
       l.Layer.stride);
  Array.iteri
    (fun i lm ->
      Buffer.add_string buf (Printf.sprintf "level %d" i);
      if lm.Mapping.temporal <> [] then
        Buffer.add_string buf (" temporal " ^ loops_to_string lm.Mapping.temporal);
      if lm.Mapping.spatial <> [] then
        Buffer.add_string buf (" spatial " ^ loops_to_string lm.Mapping.spatial);
      Buffer.add_char buf '\n')
    m.Mapping.levels;
  Buffer.contents buf

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

let meta_to_string m =
  let buf = Buffer.create 256 in
  (match m.weights with
   | Some (u, c, t) ->
     Buffer.add_string buf (Printf.sprintf "@weights %s %s %s\n" (fl u) (fl c) (fl t))
   | None -> ());
  if m.strategy <> "" then Buffer.add_string buf ("@strategy " ^ m.strategy ^ "\n");
  if m.source <> "" then Buffer.add_string buf ("@source " ^ m.source ^ "\n");
  if m.verdict <> "" then Buffer.add_string buf ("@certification " ^ m.verdict ^ "\n");
  (match m.objective with
   | Some (u, c, t, total) ->
     Buffer.add_string buf
       (Printf.sprintf "@objective %s %s %s %s\n" (fl u) (fl c) (fl t) (fl total))
   | None -> ());
  if m.solve_time <> 0. then
    Buffer.add_string buf ("@solve-time " ^ fl m.solve_time ^ "\n");
  Buffer.contents buf

let record_to_string meta m = meta_to_string meta ^ to_string m

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
