let () =
  Alcotest.run "dbds"
    [
      ("ir", Test_ir.suite);
      ("dom", Test_dom.suite);
      ("ssa-repair", Test_ssa_repair.suite);
      ("printer", Test_printer.suite);
      ("parse", Test_parse.suite);
      ("lang", Test_lang.suite);
      ("interp", Test_interp.suite);
      ("profile", Test_profile.suite);
      ("opt", Test_opt.suite);
      ("valtab", Test_valtab.suite);
      ("memstate", Test_memstate.suite);
      ("inline", Test_inline.suite);
      ("sccp", Test_sccp.suite);
      ("costmodel", Test_costmodel.suite);
      ("dbds", Test_dbds.suite);
      ("analyses", Test_analyses.suite);
      ("parallel", Test_parallel.suite);
      ("faults", Test_faults.suite);
      ("pathdup", Test_pathdup.suite);
      ("passes", Test_passes.suite);
      ("properties", Test_properties.suite);
      ("workloads", Test_workloads.suite);
      ("lab", Test_lab.suite);
      ("harness", Test_harness.suite);
      ("vm", Test_vm.suite);
      ("service", Test_service.suite);
      ("sim", Test_sim.suite);
      ("frontdoor", Test_frontdoor.suite);
    ]
