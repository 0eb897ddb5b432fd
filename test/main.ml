(* Test entry point: one alcotest suite per library. *)

let () =
  Alcotest.run "qaoa_compile"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("obs-domains", Test_obs_domains.suite);
      ("graph", Test_graph.suite);
      ("circuit", Test_circuit.suite);
      ("optimize+dag", Test_optimize.suite);
      ("render+landscape", Test_render.suite);
      ("hardware", Test_hardware.suite);
      ("backend", Test_backend.suite);
      ("sim", Test_sim.suite);
      ("density-matrix", Test_density.suite);
      ("core", Test_core.suite);
      ("strategies", Test_strategies.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("swap-network+mitigation", Test_swap_network.suite);
      ("classical+export", Test_classical.suite);
      ("encodings", Test_encodings.suite);
      ("solver", Test_solver.suite);
      ("families+budget", Test_families.suite);
      ("pipeline-fuzz", Test_pipeline.suite);
      ("verify", Test_verify.suite);
      ("analysis", Test_analysis.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("resilience", Test_resilience.suite);
      ("journal", Test_journal.suite);
      ("serve", Test_serve.suite);
    ]
