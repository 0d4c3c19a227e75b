let () =
  Alcotest.run "specauction"
    [
      ("util", Suite_util.suite);
      ("geometry", Suite_geom.suite);
      ("graph", Suite_graph.suite);
      ("lp", Suite_lp.suite);
      ("valuation", Suite_valuation.suite);
      ("wireless", Suite_wireless.suite);
      ("core", Suite_core.suite);
      ("mechanism", Suite_mechanism.suite);
      ("double-auction", Suite_double_auction.suite);
      ("serialize", Suite_serialize.suite);
      ("viz", Suite_viz.suite);
      ("primary", Suite_primary.suite);
      ("simulation", Suite_sim.suite);
      ("edge-cases", Suite_edge_cases.suite);
      ("online", Suite_online.suite);
      ("parallel", Suite_parallel.suite);
      ("metrics", Suite_metrics.suite);
      ("telemetry", Suite_telemetry.suite);
      ("observability", Suite_observability.suite);
      ("properties", Suite_properties.suite);
      ("engine", Suite_engine.suite);
      ("resilience", Suite_resilience.suite);
      ("pool", Suite_pool.suite);
      ("staging", Suite_staging.suite);
      ("lp-refactor", Suite_refactor.suite);
      ("derand", Suite_derand.suite);
    ]
