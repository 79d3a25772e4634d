let () =
  Alcotest.run "select_triggers"
    [
      ("value", Test_value.suite);
      ("storage", Test_storage.suite);
      ("columnar", Test_columnar.suite);
      ("parser", Test_parser.suite);
      ("scalar", Test_scalar.suite);
      ("exec", Test_exec.suite);
      ("optimizer", Test_optimizer.suite);
      ("expr_compile", Test_expr_compile.suite);
      ("physical", Test_physical.suite);
      ("placement", Test_placement.suite);
      ("audit", Test_audit.suite);
      ("triggers", Test_triggers.suite);
      ("dml_access", Test_dml_access.suite);
      ("offline", Test_offline.suite);
      ("static", Test_static.suite);
      ("verify", Test_verify.suite);
      ("elision", Test_elision.suite);
      ("tpch", Test_tpch.suite);
      ("setops", Test_setops.suite);
      ("db", Test_db.suite);
      ("disclosure", Test_disclosure.suite);
      ("dump", Test_dump.suite);
      ("index", Test_index.suite);
      ("reorder", Test_reorder.suite);
      ("properties", Test_properties.suite);
      ("metrics", Test_metrics.suite);
      ("batch_diff", Test_batch_diff.suite);
      ("wal", Test_wal.suite);
      ("server", Test_server.suite);
      ("robustness", Test_robustness.suite);
      ("plan_cache", Test_plan_cache.suite);
    ]
