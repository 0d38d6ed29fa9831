(* Workload integration tests: every benchmark program runs identically
   under every build configuration; the paper's two anecdotes (gawk fails
   under checking, gs is clean) reproduce. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_output_equality () =
  List.iter
    (fun w ->
      let out =
        Util.check_all_configs_agree
          ~expect_checked_fault:w.Workloads.Registry.w_checked_fails
          w.Workloads.Registry.w_name w.Workloads.Registry.w_source
      in
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ " expected output prefix")
        true
        (starts_with w.Workloads.Registry.w_expected_prefix out))
    Workloads.Registry.all

let test_gawk_bug_detected () =
  (* "With checking enabled, it immediately and correctly detected a
     pointer arithmetic error which was also an array access error." *)
  match
    Util.run_built Harness.Build.Debug_checked
      Workloads.Registry.gawk.Workloads.Registry.w_source
  with
  | Harness.Measure.Detected msg ->
      Alcotest.(check bool) "GC_same_obj names the escape" true
        (starts_with "GC_same_obj" msg)
  | o ->
      Alcotest.failf "the gawk bug must be detected, got: %s"
        (Harness.Measure.describe o)

let test_gawk_runs_unchecked () =
  (* "It ran correctly without checking." *)
  List.iter
    (fun config ->
      match
        Util.run_built config Workloads.Registry.gawk.Workloads.Registry.w_source
      with
      | Harness.Measure.Ran _ -> ()
      | o ->
          Alcotest.failf "gawk failed under %s: %s"
            (Harness.Build.config_name config)
            (Harness.Measure.describe o))
    [ Harness.Build.Base; Harness.Build.Safe; Harness.Build.Debug ]

let test_gawk_fix_passes_checking () =
  (* "After fixing that ..." — the fixed program is check-clean *)
  match
    Util.run_built Harness.Build.Debug_checked
      Workloads.Registry.gawk_fixed.Workloads.Registry.w_source
  with
  | Harness.Measure.Ran _ -> ()
  | o -> Alcotest.failf "fixed gawk flagged: %s" (Harness.Measure.describe o)

let test_gawk_outputs_agree () =
  (* the bug is benign: buggy and fixed programs compute the same thing *)
  let out src =
    match Util.run_built Harness.Build.Base src with
    | Harness.Measure.Ran r -> r.Harness.Measure.o_output
    | o -> Alcotest.fail (Harness.Measure.describe o)
  in
  Alcotest.(check string) "same results"
    (out Workloads.Registry.gawk.Workloads.Registry.w_source)
    (out Workloads.Registry.gawk_fixed.Workloads.Registry.w_source)

let test_gs_checking_clean () =
  (* "No pointer arithmetic errors were found" — prepended headers *)
  match
    Util.run_built Harness.Build.Debug_checked
      Workloads.Registry.gs.Workloads.Registry.w_source
  with
  | Harness.Measure.Ran r ->
      Alcotest.(check bool) "produced pages" true
        (starts_with "showpage" r.Harness.Measure.o_output)
  | o -> Alcotest.failf "gs flagged: %s" (Harness.Measure.describe o)

let test_cordtest_checking_clean () =
  (* the paper found one benign bug and fixed it; our cord package is the
     post-fix version, so checking passes *)
  match
    Util.run_built Harness.Build.Debug_checked
      Workloads.Registry.cordtest.Workloads.Registry.w_source
  with
  | Harness.Measure.Ran _ -> ()
  | o -> Alcotest.failf "cordtest flagged: %s" (Harness.Measure.describe o)

let test_workloads_allocate () =
  (* all four are allocation-intensive, like the Zorn programs *)
  List.iter
    (fun w ->
      let irp = Util.compile w.Workloads.Registry.w_source in
      let r = Machine.Vm.run irp in
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ " allocates heavily")
        true
        (r.Machine.Vm.r_heap.Gcheap.Heap.objects_allocated > 500))
    Workloads.Registry.paper_suite

let test_collections_reclaim () =
  (* under a small threshold the collector reclaims most garbage *)
  let irp =
    Util.compile Workloads.Registry.cfrac.Workloads.Registry.w_source
  in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_heap =
        {
          Gcheap.Heap.default_config with
          Gcheap.Heap.gc_threshold = 16 * 1024;
        };
    }
  in
  let r = Machine.Vm.run ~config irp in
  let s = r.Machine.Vm.r_heap in
  Alcotest.(check bool) "collected repeatedly" true (r.Machine.Vm.r_gc_count > 5);
  Alcotest.(check bool) "reclaimed most garbage" true
    (float_of_int s.Gcheap.Heap.objects_freed
    > 0.8 *. float_of_int s.Gcheap.Heap.objects_allocated)

let suite =
  [
    Alcotest.test_case "all configurations agree" `Slow test_output_equality;
    Alcotest.test_case "gawk: bug detected by checking" `Quick
      test_gawk_bug_detected;
    Alcotest.test_case "gawk: runs correctly unchecked" `Quick
      test_gawk_runs_unchecked;
    Alcotest.test_case "gawk: fix passes checking" `Quick
      test_gawk_fix_passes_checking;
    Alcotest.test_case "gawk: bug is benign" `Quick test_gawk_outputs_agree;
    Alcotest.test_case "gs: checking finds nothing" `Quick
      test_gs_checking_clean;
    Alcotest.test_case "cordtest: checking passes" `Quick
      test_cordtest_checking_clean;
    Alcotest.test_case "workloads allocate heavily" `Quick
      test_workloads_allocate;
    Alcotest.test_case "collector reclaims garbage" `Quick
      test_collections_reclaim;
  ]
