(* Test entry point: every module suite, unit and property tests. *)

let () =
  Alcotest.run "cosa"
    [
      Test_prim.suite;
      Test_milp.suite;
      Test_simplex.suite;
      Test_lu.suite;
      Test_warm.suite;
      Test_presolve.suite;
      Test_workload.suite;
      Test_arch.suite;
      Test_mapping.suite;
      Test_mapping_io.suite;
      Test_mapspace_network.suite;
      Test_model.suite;
      Test_model_counts.suite;
      Test_noc.suite;
      Test_robust.suite;
      Test_mesh_wormhole.suite;
      Test_cosa.suite;
      Test_certify.suite;
      Test_decode.suite;
      Test_objective.suite;
      Test_mappers.suite;
      Test_search_mappers.suite;
      Test_gpu.suite;
      Test_exp.suite;
      Test_exp_common.suite;
      Test_serve.suite;
      Test_daemon.suite;
      Test_telemetry.suite;
      Test_fuse.suite;
      Test_integration.suite;
      Test_crossval.suite;
      Test_kernels.suite;
    ]
