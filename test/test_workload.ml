(* Tests for dims, layers, and the workload zoo. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_dim_indices () =
  List.iter
    (fun d -> check_bool "roundtrip" true (Dims.dim_of_index (Dims.dim_index d) = d))
    Dims.all_dims;
  List.iter
    (fun v ->
      check_bool "tensor roundtrip" true (Dims.tensor_of_index (Dims.tensor_index v) = v))
    Dims.all_tensors;
  Alcotest.check_raises "bad index" (Invalid_argument "Dims.dim_of_index: 7") (fun () ->
      ignore (Dims.dim_of_index 7))

let test_a_matrix () =
  (* Table IV: W ~ {R,S,C,K}; IA ~ {P,Q,C,N}; OA ~ {P,Q,K,N} *)
  let expect = function
    | Dims.W -> Dims.[ R; S; C; K ]
    | Dims.IA -> Dims.[ P; Q; C; N ]
    | Dims.OA -> Dims.[ P; Q; K; N ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "A[%s][%s]" (Dims.dim_name d) (Dims.tensor_name v))
            (List.mem d (expect v)) (Dims.relevant d v))
        Dims.all_dims)
    Dims.all_tensors

let test_model_relevance () =
  (* only difference: IA also depends on R and S *)
  check_bool "IA~R" true (Dims.model_relevant Dims.R Dims.IA);
  check_bool "IA~S" true (Dims.model_relevant Dims.S Dims.IA);
  check_bool "paper IA!~R" false (Dims.relevant Dims.R Dims.IA);
  List.iter
    (fun v ->
      List.iter
        (fun d ->
          if not (v = Dims.IA && (d = Dims.R || d = Dims.S)) then
            check_bool "agree elsewhere" (Dims.relevant d v) (Dims.model_relevant d v))
        Dims.all_dims)
    Dims.all_tensors

let test_layer_create () =
  let l = Layer.create ~r:3 ~s:3 ~p:14 ~q:14 ~c:256 ~k:256 ~n:1 () in
  check_int "R" 3 (Layer.bound l Dims.R);
  check_int "P" 14 (Layer.bound l Dims.P);
  check_int "macs" (3 * 3 * 14 * 14 * 256 * 256) (Layer.macs l);
  Alcotest.(check string) "default name" "3_14_256_256_1" l.Layer.name;
  Alcotest.check_raises "bad dim" (Invalid_argument "Layer.create: c = 0 < 1") (fun () ->
      ignore (Layer.create ~r:1 ~s:1 ~p:1 ~q:1 ~c:0 ~k:1 ~n:1 ()))

let test_layer_gemm () =
  let g = Layer.gemm ~m:512 ~n:700 ~k:2048 () in
  check_int "output channels = M" 512 (Layer.bound g Dims.K);
  check_int "spatial = N" 700 (Layer.bound g Dims.P);
  check_int "reduction = K" 2048 (Layer.bound g Dims.C);
  check_int "unit filter" 1 (Layer.bound g Dims.R);
  check_int "gemm macs" (512 * 700 * 2048) (Layer.macs g)

let test_layer_halo () =
  let l = Layer.create ~r:3 ~s:3 ~p:14 ~q:14 ~c:8 ~k:8 ~n:1 ~stride:2 () in
  check_int "input width" ((14 - 1) * 2 + 3) (Layer.input_width l);
  check_int "IA words" (29 * 29 * 8) (Layer.tensor_words l Dims.IA);
  check_int "W words" (3 * 3 * 8 * 8) (Layer.tensor_words l Dims.W);
  check_int "OA words" (14 * 14 * 8) (Layer.tensor_words l Dims.OA)

let test_layer_factors () =
  let l = Layer.create ~r:1 ~s:1 ~p:1 ~q:1 ~c:12 ~k:1 ~n:1 () in
  Alcotest.(check (list (pair string int)))
    "C factors"
    [ ("C", 2); ("C", 2); ("C", 3) ]
    (List.map (fun (d, p) -> (Dims.dim_name d, p)) (Layer.factors l));
  let groups = Layer.factor_groups l in
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_padded_bound () =
  let l = Layer.create ~r:1 ~s:1 ~p:1 ~q:1 ~c:11 ~k:1000 ~n:1 () in
  check_int "11 padded to 12" 12 (Layer.padded_bound l Dims.C);
  check_int "1000 unchanged" 1000 (Layer.padded_bound l Dims.K)

let test_zoo () =
  List.iter
    (fun (name, layers) ->
      check_bool (name ^ " non-empty") true (List.length layers >= 5))
    Zoo.suites;
  check_int "four suites" 4 (List.length Zoo.suites);
  (* all names unique across suites *)
  let names = List.map (fun (l : Layer.t) -> l.Layer.name) (List.concat_map snd Zoo.suites) in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names));
  (* find works and fails as documented *)
  let l = Zoo.find "3_7_512_512_1" in
  check_int "found layer K" 512 (Layer.bound l Dims.K);
  check_bool "missing raises" true
    (match Zoo.find "nope" with exception Not_found -> true | _ -> false)

let test_resnet_shapes () =
  (* spot-check canonical ResNet-50 facts *)
  let stem = Zoo.find "7_112_3_64_2" in
  check_int "stem stride" 2 stem.Layer.stride;
  let fig1 = Zoo.find "3_14_256_256_1" in
  check_int "fig1 P" 14 (Layer.bound fig1 Dims.P)

let test_network_distinct () =
  (* ResNet-50: 53 convolutions + FC = 54 instances over 24 entries, every
     entry already a distinct shape *)
  let net = Network.resnet50 in
  check_int "resnet50 instances" 54 (Network.layer_count net);
  check_int "resnet50 entries" 24 (List.length net.Network.entries);
  check_int "resnet50 distinct shapes" 24 (Network.distinct_count net);
  let d = Network.distinct net in
  check_int "summed repeats cover all instances" (Network.layer_count net)
    (List.fold_left (fun acc (_, reps) -> acc + reps) 0 d);
  (* same invariant on ResNeXt-50 *)
  check_int "resnext50 repeats conserved" (Network.layer_count Network.resnext50)
    (List.fold_left (fun acc (_, reps) -> acc + reps) 0
       (Network.distinct Network.resnext50));
  (* shape-equal entries under different names merge, first occurrence
     wins, repeats sum *)
  let shape name = Layer.create ~name ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 () in
  let other = Layer.create ~name:"other" ~r:3 ~s:3 ~p:4 ~q:4 ~c:4 ~k:4 ~n:1 () in
  let dup =
    { Network.nname = "dup";
      entries =
        [ { Network.layer = shape "first"; repeats = 2 };
          { Network.layer = other; repeats = 1 };
          { Network.layer = shape "second"; repeats = 3 } ] }
  in
  check_int "duplicates collapse" 2 (Network.distinct_count dup);
  (match Network.distinct dup with
   | [ (e1, r1); (e2, r2) ] ->
     Alcotest.(check string) "first occurrence kept" "first" e1.Network.layer.Layer.name;
     check_int "repeats summed" 5 r1;
     Alcotest.(check string) "order preserved" "other" e2.Network.layer.Layer.name;
     check_int "singleton repeats" 1 r2
   | _ -> Alcotest.fail "expected two distinct groups");
  (* find is case/dash/underscore-insensitive *)
  check_bool "find resnet50" true
    (match Network.find "ResNet-50" with
     | Some n -> n.Network.nname = Network.resnet50.Network.nname
     | None -> false);
  check_bool "find unknown" true (Network.find "vgg" = None)

let prop_factors_multiply_to_padded =
  QCheck.Test.make ~name:"layer factors multiply to padded bounds" ~count:100
    QCheck.(quad (int_range 1 7) (int_range 1 64) (int_range 1 512) (int_range 1 512))
    (fun (r, p, c, k) ->
      let l = Layer.create ~r ~s:r ~p ~q:p ~c ~k ~n:1 () in
      List.for_all
        (fun d ->
          let prod =
            List.fold_left
              (fun acc (d', prime) -> if d' = d then acc * prime else acc)
              1 (Layer.factors l)
          in
          prod = Layer.padded_bound l d)
        Dims.all_dims)

(* [Zoo.find] scans a list built once; it must answer as the scan of a
   freshly concatenated list did: the first layer of that name, or
   [Not_found]. *)
let test_zoo_find_matches_scan () =
  let scan name =
    List.find (fun (l : Layer.t) -> l.Layer.name = name) (List.concat_map snd Zoo.suites)
  in
  let answer f name = match f name with l -> Some l | exception Not_found -> None in
  let names =
    "no-such-layer"
    :: List.concat_map (fun (_, ls) -> List.map (fun (l : Layer.t) -> l.Layer.name) ls) Zoo.suites
  in
  List.iter
    (fun name ->
      match (answer scan name, answer Zoo.find name) with
      | Some a, Some b -> check_bool name true (a == b)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: Zoo.find differs from the scan" name)
    names

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "workload",
    [
      Alcotest.test_case "dim indices" `Quick test_dim_indices;
      Alcotest.test_case "A matrix (Table IV)" `Quick test_a_matrix;
      Alcotest.test_case "model relevance" `Quick test_model_relevance;
      Alcotest.test_case "layer create" `Quick test_layer_create;
      Alcotest.test_case "gemm lowering" `Quick test_layer_gemm;
      Alcotest.test_case "IA halo" `Quick test_layer_halo;
      Alcotest.test_case "factors" `Quick test_layer_factors;
      Alcotest.test_case "padded bounds" `Quick test_padded_bound;
      Alcotest.test_case "zoo suites" `Quick test_zoo;
      Alcotest.test_case "resnet shapes" `Quick test_resnet_shapes;
      Alcotest.test_case "network distinct" `Quick test_network_distinct;
      qc prop_factors_multiply_to_padded;
      Alcotest.test_case "zoo find = scan of the suites" `Quick test_zoo_find_matches_scan;
    ] )
