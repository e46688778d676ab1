let conv ?name ?stride ~r ~p ~c ~k () =
  Layer.create ?name ?stride ~r ~s:r ~p ~q:p ~c ~k ~n:1 ()

let resnet50 =
  [
    conv ~r:7 ~p:112 ~c:3 ~k:64 ~stride:2 ();
    conv ~r:1 ~p:56 ~c:64 ~k:64 ();
    conv ~r:3 ~p:56 ~c:64 ~k:64 ();
    conv ~r:1 ~p:56 ~c:64 ~k:256 ();
    conv ~r:1 ~p:56 ~c:256 ~k:64 ();
    conv ~r:1 ~p:56 ~c:256 ~k:128 ();
    conv ~r:3 ~p:28 ~c:128 ~k:128 ~stride:2 ();
    conv ~r:1 ~p:28 ~c:128 ~k:512 ();
    conv ~r:1 ~p:28 ~c:256 ~k:512 ~stride:2 ();
    conv ~r:1 ~p:28 ~c:512 ~k:128 ();
    conv ~r:3 ~p:28 ~c:128 ~k:128 ();
    conv ~r:1 ~p:28 ~c:512 ~k:256 ();
    conv ~r:3 ~p:14 ~c:256 ~k:256 ~stride:2 ();
    conv ~r:1 ~p:14 ~c:256 ~k:1024 ();
    conv ~r:1 ~p:14 ~c:512 ~k:1024 ~stride:2 ();
    conv ~r:1 ~p:14 ~c:1024 ~k:256 ();
    conv ~r:3 ~p:14 ~c:256 ~k:256 ();
    conv ~r:1 ~p:14 ~c:1024 ~k:512 ();
    conv ~r:3 ~p:7 ~c:512 ~k:512 ~stride:2 ();
    conv ~r:1 ~p:7 ~c:512 ~k:2048 ();
    conv ~r:1 ~p:7 ~c:1024 ~k:2048 ~stride:2 ();
    conv ~r:1 ~p:7 ~c:2048 ~k:512 ();
    conv ~r:3 ~p:7 ~c:512 ~k:512 ();
    Layer.gemm ~name:"fc1000" ~m:1000 ~n:1 ~k:2048 ();
  ]

(* ResNeXt-50 (32x4d): grouped 3x3 convs are scheduled per group (the
   per-group channel count is what the accelerator sees). *)
let resnext50 =
  [
    conv ~name:"x7_112_3_64_2" ~r:7 ~p:112 ~c:3 ~k:64 ~stride:2 ();
    conv ~r:1 ~p:56 ~c:64 ~k:128 ();
    conv ~name:"g3_56_4_4_1" ~r:3 ~p:56 ~c:4 ~k:4 ();
    conv ~r:1 ~p:56 ~c:128 ~k:256 ();
    conv ~name:"x1_56_256_128_1" ~r:1 ~p:56 ~c:256 ~k:128 ();
    conv ~r:1 ~p:56 ~c:256 ~k:256 ();
    conv ~name:"g3_28_8_8_2" ~r:3 ~p:28 ~c:8 ~k:8 ~stride:2 ();
    conv ~r:1 ~p:28 ~c:256 ~k:512 ();
    conv ~name:"x1_28_512_256_1" ~r:1 ~p:28 ~c:512 ~k:256 ();
    conv ~name:"g3_28_8_8_1" ~r:3 ~p:28 ~c:8 ~k:8 ();
    conv ~r:1 ~p:28 ~c:512 ~k:512 ();
    conv ~name:"g3_14_16_16_2" ~r:3 ~p:14 ~c:16 ~k:16 ~stride:2 ();
    conv ~r:1 ~p:14 ~c:512 ~k:1024 ();
    conv ~name:"x1_14_1024_512_1" ~r:1 ~p:14 ~c:1024 ~k:512 ();
    conv ~name:"g3_14_16_16_1" ~r:3 ~p:14 ~c:16 ~k:16 ();
    conv ~r:1 ~p:14 ~c:1024 ~k:1024 ();
    conv ~name:"g3_7_32_32_2" ~r:3 ~p:7 ~c:32 ~k:32 ~stride:2 ();
    conv ~r:1 ~p:7 ~c:1024 ~k:2048 ();
    conv ~r:1 ~p:7 ~c:2048 ~k:1024 ();
    conv ~name:"g3_7_32_32_1" ~r:3 ~p:7 ~c:32 ~k:32 ();
    Layer.gemm ~name:"fc1000x" ~m:1000 ~n:1 ~k:2048 ();
  ]

(* DeepBench OCR inference GEMMs (M, N, K) from the DeepBench suite. *)
let deepbench_ocr =
  [
    Layer.gemm ~name:"ocr_5124_700_2048" ~m:5124 ~n:700 ~k:2048 ();
    Layer.gemm ~name:"ocr_35_700_2048" ~m:35 ~n:700 ~k:2048 ();
    Layer.gemm ~name:"ocr_5124_700_2560" ~m:5124 ~n:700 ~k:2560 ();
    Layer.gemm ~name:"ocr_35_700_2560" ~m:35 ~n:700 ~k:2560 ();
    Layer.gemm ~name:"ocr_3072_1500_1024" ~m:3072 ~n:1500 ~k:1024 ();
    Layer.gemm ~name:"ocr_512_1500_2816" ~m:512 ~n:1500 ~k:2816 ();
  ]

(* Face-recognition-style conv pyramid (DeepBench-scale stand-ins). *)
let deepbench_face =
  [
    conv ~name:"face_3_54_3_64_2" ~r:3 ~p:54 ~c:3 ~k:64 ~stride:2 ();
    conv ~name:"face_3_27_64_128_2" ~r:3 ~p:27 ~c:64 ~k:128 ~stride:2 ();
    conv ~name:"face_3_14_128_256_2" ~r:3 ~p:14 ~c:128 ~k:256 ~stride:2 ();
    conv ~name:"face_3_7_256_512_2" ~r:3 ~p:7 ~c:256 ~k:512 ~stride:2 ();
    conv ~name:"face_1_7_512_512_1" ~r:1 ~p:7 ~c:512 ~k:512 ();
    Layer.gemm ~name:"face_fc_512_512" ~m:512 ~n:1 ~k:512 ();
  ]

let suites =
  [
    ("ResNet-50", resnet50);
    ("ResNeXt-50", resnext50);
    ("DeepBench-OCR", deepbench_ocr);
    ("DeepBench-Face", deepbench_face);
  ]

(* Built once at module initialisation, not on first use: the daemon's
   connection threads call [find] concurrently. *)
let all_layers = List.concat_map snd suites

let find name = List.find (fun (l : Layer.t) -> l.Layer.name = name) all_layers
