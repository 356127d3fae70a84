let () =
  Alcotest.run "lfs-repro"
    [
      ("util", Test_util.suite);
      ("cache", Test_cache.suite);
      ("vfs", Test_vfs.suite);
      ("codecs", Test_codecs.suite);
      ("disk", Test_disk.suite);
      ("sched", Test_sched.suite);
      ("volume", Test_volume.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("lfs-basic", Test_lfs_basic.suite);
      ("lfs-internals", Test_lfs_internals.suite);
      ("lfs-recovery", Test_lfs_recovery.suite);
      ("lfs-cleaner", Test_lfs_cleaner.suite);
      ("fs-conformance", Generic_suite.suite);
      ("model", Test_model.suite);
      ("check", Test_check.suite);
      ("ffs", Test_ffs.suite);
      ("ffs-alloc", Test_ffs_alloc.suite);
      ("readahead", Test_readahead.suite);
      ("workload", Test_workload.suite);
      ("experiment", Test_experiment.suite);
      ("engine", Test_engine.suite);
      ("crashpoint", Test_crashpoint.suite);
      ("scenario", Test_scenario.suite);
      ("trace", Test_trace.suite);
      ("misc", Test_misc.suite);
      ("alloc", Test_alloc.suite);
    ]
