let () =
  Alcotest.run "superimposed"
    [
      ("xmlk", Test_xmlk.suite);
      ("obs", Test_obs.suite);
      ("textdoc", Test_textdoc.suite);
      ("spreadsheet", Test_spreadsheet.suite);
      ("wordproc", Test_wordproc.suite);
      ("slides", Test_slides.suite);
      ("pdfdoc", Test_pdfdoc.suite);
      ("htmldoc", Test_htmldoc.suite);
      ("triple", Test_triple.suite);
      ("wal", Test_wal.suite);
      ("metamodel", Test_metamodel.suite);
      ("mark", Test_mark.suite);
      ("slim", Test_slim.suite);
      ("mapping", Test_mapping.suite);
      ("query", Test_query.suite);
      ("slimpad", Test_slimpad.suite);
      ("lint", Test_lint.suite);
      ("generic-dmi", Test_generic_dmi.suite);
      ("rdf & models", Test_rdf.suite);
      ("robustness", Test_robustness.suite);
      ("replication", Test_replication.suite);
      ("workload", Test_workload.suite);
      ("server", Test_server.suite);
      ("tui", Test_tui.suite);
      ("bundle", Test_bundle.suite);
      ("io", Test_io.suite);
      ("check", Test_check.suite);
    ]
