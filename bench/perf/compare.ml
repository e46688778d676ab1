(* `perf.exe compare A B`: two results files of `perf.exe run`, read as the
   line-per-sample records it writes, judged by the rule of the
   choosing-metrics guide (section 8):

   - unresolved: A's own spread (q3 - q1) exceeds the bound, unless every
     run of B is better than every run of A;
   - regressed: B's median is worse than A's by more than the bound;
   - improved: over at least ten rep pairs, B wins at least nine tenths
     (ties count for neither) and the medians differ by more than A's
     spread;
   - within-bound otherwise. *)

type series = {
  unit : string;
  better : Report.better;
  bound : float option;
  values : float list;  (** in rep order *)
}

let parse_sample line =
  match String.split_on_char '\t' line with
  | [ "sample"; workload; metric; v; unit; better; bound ] ->
    (match (float_of_string_opt v, better) with
     | Some v, ("lower" | "higher") ->
       Some
         ( (workload, metric),
           { unit; better = (if better = "lower" then Report.Lower else Report.Higher);
             bound = float_of_string_opt bound; values = [ v ] } )
     | _ -> None)
  | _ -> None

(* One series per (workload, metric), in the order first seen. *)
let group samples =
  let table = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (key, s) ->
      match Hashtbl.find_opt table key with
      | Some prev -> Hashtbl.replace table key { prev with values = prev.values @ s.values }
      | None ->
        Hashtbl.add table key s;
        order := key :: !order)
    samples;
  List.rev_map (fun k -> (k, Hashtbl.find table k)) !order

let read file =
  group (List.filter_map parse_sample (In_channel.with_open_text file In_channel.input_lines))

let is_better better b a = match better with Report.Lower -> b < a | Report.Higher -> b > a

let verdict (a : series) (b : series) =
  let qa1, ma, qa3 = Report.quartiles a.values in
  let _, mb, _ = Report.quartiles b.values in
  (* rep i of A against rep i of B *)
  let n = min (List.length a.values) (List.length b.values) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first a.values) (first b.values) in
  let wins = List.length (List.filter (fun (x, y) -> is_better a.better y x) pairs) in
  let scale = Float.abs ma in
  let rel x = if scale > 0. then x /. scale else 0. in
  let spread = rel (qa3 -. qa1) in
  let worse = rel (match a.better with Report.Lower -> mb -. ma | Report.Higher -> ma -. mb) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> is_better a.better y x) a.values) b.values
  in
  let v =
    match a.bound with
    | None -> "-"
    | Some bound ->
      if spread > bound && not all_better then "unresolved"
      else if worse > bound then "regressed"
      else if
        List.length pairs >= 10
        && 10 * wins >= 9 * List.length pairs
        && is_better a.better mb ma
        && Float.abs (mb -. ma) > qa3 -. qa1
      then "improved"
      else "within-bound"
  in
  (v, wins, List.length pairs)

(* Print one row per (workload, metric) both files have; false when any
   pair regressed or is unresolved. *)
let compare_files fa fb =
  let a = read fa and b = read fb in
  let ok = ref true in
  let stats s =
    let q1, m, q3 = Report.quartiles s.values in
    Printf.sprintf "%s [%s,%s]" (Report.number m) (Report.number q1) (Report.number q3)
  in
  Printf.printf "# workload metric | A median [q1,q3] | B median [q1,q3] | B wins | verdict\n";
  List.iter
    (fun (((w, m) as key), sa) ->
      match List.assoc_opt key b with
      | None -> ()
      | Some sb ->
        let v, wins, pairs = verdict sa sb in
        if v = "regressed" || v = "unresolved" then ok := false;
        Printf.printf "%s %s | %s | %s | %d/%d | %s (bound %s, %s)\n" w m (stats sa) (stats sb)
          wins pairs v
          (match sa.bound with Some x -> Report.number x | None -> "-")
          sa.unit)
    a;
  !ok
