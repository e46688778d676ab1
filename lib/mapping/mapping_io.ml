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

(* ---- the reader -------------------------------------------------------

   One pass over the text with an index cursor: no line list, no word
   lists, no clause re-joined and re-split. It accepts what the
   line-and-word reader before it accepted, and returns the same value
   (that reader is kept as [Ref_io] in test/test_kernels.ml):
   - lines are trimmed of [String.trim]'s whitespace; blank ones are skipped;
   - words are split at single blanks, so a tab stays inside its word;
   - numbers are read by [int_of_string_opt] and [float_of_string_opt] on
     the bytes of their token;
   - one kind of loops on a level line is that kind's words as if joined
     by blanks and split at commas, each loop trimmed: so a loop may not
     span two words, and a kind whose words are all blank has no loops. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec same_from s a lit i =
  i = String.length lit || (s.[a + i] = lit.[i] && same_from s a lit (i + 1))

(* [s.[a, b)] is [lit] *)
let sub_is s a b lit = b - a = String.length lit && same_from s a lit 0

(* the end of the word starting at [i]: its first blank, or [b] *)
let rec word_end s i b = if i < b && s.[i] <> ' ' then word_end s (i + 1) b else i

let int_at s a b = int_of_string_opt (String.sub s a (b - a))

(* [a, b): the current line, trimmed; [pos]: where the next line starts *)
type cursor = { s : string; mutable pos : int; mutable a : int; mutable b : int }

(* Move to the next line that is not blank; [false] at the end. *)
let rec next_line c =
  let s = c.s and n = String.length c.s in
  if c.pos > n then false
  else begin
    let e = ref c.pos in
    while !e < n && s.[!e] <> '\n' do incr e done;
    let a = ref c.pos and b = ref !e in
    while !a < !b && is_space s.[!a] do incr a done;
    while !b > !a && is_space s.[!b - 1] do decr b done;
    c.pos <- !e + 1;
    if !a = !b then next_line c
    else begin
      c.a <- !a;
      c.b <- !b;
      true
    end
  end

(* The line is [word] and at least one more (maybe empty) word. *)
let starts_with_word c word =
  let k = String.length word in
  c.b - c.a > k && c.s.[c.a + k] = ' ' && sub_is c.s c.a (c.a + k) word

let layer_keys = [| "r"; "s"; "p"; "q"; "c"; "k"; "n"; "stride" |]

(* The [layer_keys] slot of a "key=value" token [s.[i, e)] with a
   non-empty value, or -1. *)
let key_slot s i e =
  if e - i > 7 && sub_is s i (i + 7) "stride=" then 7
  else if e - i > 2 && s.[i + 1] = '=' then
    match s.[i] with
    | 'r' -> 0 | 's' -> 1 | 'p' -> 2 | 'q' -> 3 | 'c' -> 4 | 'k' -> 5 | 'n' -> 6 | _ -> -1
  else -1

(* "layer <name> r=.. s=.. ...": keys in any order; per key, the first
   token whose value reads as an int wins, and other tokens are ignored. *)
let layer_line c =
  let s = c.s and b = c.b in
  if not (starts_with_word c "layer") then bad "first line must start with 'layer <name> ...'";
  let na = c.a + 6 in
  let ne = word_end s na b in
  let name = String.sub s na (ne - na) in
  let v = Array.make (Array.length layer_keys) 0 and found = ref 0 in
  let i = ref (ne + 1) in
  while !i < b do
    let e = word_end s !i b in
    let k = key_slot s !i e in
    (if k >= 0 && !found land (1 lsl k) = 0 then
       match int_at s (!i + String.length layer_keys.(k) + 1) e with
       | Some x ->
         v.(k) <- x;
         found := !found lor (1 lsl k)
       | None -> ());
    i := e + 1
  done;
  for k = 0 to Array.length layer_keys - 1 do
    if !found land (1 lsl k) = 0 then bad "missing %s= in layer line" layer_keys.(k)
  done;
  try Layer.create ~name ~r:v.(0) ~s:v.(1) ~p:v.(2) ~q:v.(3) ~c:v.(4) ~k:v.(5) ~n:v.(6) ~stride:v.(7) ()
  with Invalid_argument msg -> bad "%s" msg

(* One "D:B" loop at [s.[a, b)]; [a < 0] is an empty one. A loop whose
   bytes lie in two words has a blank inside, and fails here. *)
let loop_at s a b =
  if a < 0 || b - a < 2 || s.[a + 1] <> ':' then bad "malformed loop";
  let dim =
    match s.[a] with
    | 'R' -> Dims.R | 'S' -> Dims.S | 'P' -> Dims.P | 'Q' -> Dims.Q
    | 'C' -> Dims.C | 'K' -> Dims.K | 'N' -> Dims.N
    | ch -> bad "unknown dimension %C" ch
  in
  match int_at s (a + 2) b with
  | Some bound when bound > 0 -> { Mapping.dim; bound }
  | Some bound -> bad "non-positive bound %d" bound
  | None -> bad "bad bound in loop %S" (String.sub s a (b - a))

(* The temporal (or spatial) loops of the level-line clauses [s.[i, b)]. *)
let loops s i b ~temporal =
  let acc = ref [] and mode = ref 0 (* 0: before a keyword, 1: temporal, 2: spatial *) in
  (* the loop being read: its first and past-last non-blank bytes *)
  let seen = ref false and la = ref (-1) and lb = ref 0 in
  let w = ref i in
  while !w < b do
    let e = word_end s !w b in
    if e > !w then begin
      if sub_is s !w e "temporal" then mode := 1
      else if sub_is s !w e "spatial" then mode := 2
      else if !mode = 0 then bad "unexpected token %S in level line" (String.sub s !w (e - !w))
      else if (!mode = 1) = temporal then
        for j = !w to e - 1 do
          match s.[j] with
          | ',' ->
            acc := loop_at s !la !lb :: !acc;
            seen := true;
            la := -1
          | ch when is_space ch -> ()
          | _ ->
            seen := true;
            if !la < 0 then la := j;
            lb := j + 1
        done
    end;
    w := e + 1
  done;
  if !seen then acc := loop_at s !la !lb :: !acc;
  List.rev !acc

let rec digits i = if i < 10 then 1 else 1 + digits (i / 10)

(* "level <idx> [temporal ..] [spatial ..]" *)
let level_line c idx =
  let s = c.s and a = c.a and b = c.b in
  if not (starts_with_word c "level") then
    bad "expected 'level <n> ...', got %S" (String.sub s a (b - a));
  (match int_at s (a + 6) (word_end s (a + 6) b) with
   | Some i when i = idx -> ()
   | Some i -> bad "level %d out of order (expected %d)" i idx
   | None -> bad "bad level number in %S" (String.sub s a (b - a)));
  (* the clauses start after "level <idx>" spelled in decimal, whatever
     the number's spelling *)
  let i = a + 6 + digits idx in
  { Mapping.temporal = loops s i b ~temporal:true; spatial = loops s i b ~temporal:false }

let rec level_lines c idx =
  if next_line c then
    let l = level_line c idx in
    l :: level_lines c (idx + 1)
  else []

(* The mapping body from the current line on, if [has_line]. *)
let body c has_line =
  if not has_line then bad "empty input";
  let layer = layer_line c in
  match level_lines c 0 with
  | [] -> bad "no levels"
  | levels -> Mapping.make layer (Array.of_list levels)

let parse f text pos =
  try Ok (f { s = text; pos; a = 0; b = 0 }) with Bad msg -> Error msg

let of_string text = parse (fun c -> body c (next_line c)) text 0

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

(* Exactly [n] blank-separated floats in [s.[a, b)], the value of [@key]. *)
let floats s a b n key =
  let x = Array.make n 0. and k = ref 0 and i = ref a in
  while !i < b do
    let e = word_end s !i b in
    if e > !i then begin
      if !k = n then bad "@%s needs %d values" key n;
      (match float_of_string_opt (String.sub s !i (e - !i)) with
       | Some f -> x.(!k) <- f
       | None -> bad "bad float in @%s line" key);
      incr k
    end;
    i := e + 1
  done;
  if !k < n then bad "@%s needs %d values" key n;
  x

(* "@key value": a later line overrides an earlier one with the same key. *)
let meta_line c m =
  let s = c.s and a = c.a and b = c.b in
  let ka = a + 1 and kb = word_end s a b in
  if kb = b then bad "malformed metadata line %S" (String.sub s a (b - a));
  let v = ref (kb + 1) in
  while !v < b && is_space s.[!v] do incr v done;
  let v = !v in
  if sub_is s ka kb "weights" then
    let x = floats s v b 3 "weights" in
    { m with weights = Some (x.(0), x.(1), x.(2)) }
  else if sub_is s ka kb "strategy" then { m with strategy = String.sub s v (b - v) }
  else if sub_is s ka kb "source" then { m with source = String.sub s v (b - v) }
  else if sub_is s ka kb "certification" then { m with verdict = String.sub s v (b - v) }
  else if sub_is s ka kb "objective" then
    let x = floats s v b 4 "objective" in
    { m with objective = Some (x.(0), x.(1), x.(2), x.(3)) }
  else if sub_is s ka kb "solve-time" then
    { m with solve_time = (floats s v b 1 "solve-time").(0) }
  else bad "unknown metadata key @%s" (String.sub s ka (kb - ka))

(* Metadata lines, then the mapping body. *)
let rec record c m =
  let has_line = next_line c in
  if has_line && c.s.[c.a] = '@' then record c (meta_line c m) else (m, body c has_line)

let record_of_string ?(pos = 0) text =
  if pos < 0 || pos > String.length text then invalid_arg "Mapping_io.record_of_string: pos";
  parse (fun c -> record c default_meta) text pos

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
