(** CI bench-smoke: the identity and lab gates, fast enough to run on
    every push.

    Fails (exit 1) when:
    - the compiled IR of every paper benchmark stops being
      byte-identical across jobs values, or between region runs and
      whole-graph runs of the classic passes;
    - warm service recompiles stop being byte-identical to cold ones;
    - [pmd]'s compile effort exceeds its work-unit budget;
    - read elimination, conditional elimination and PEA together
      exceed their work-unit budget over the paper benchmarks;
    - the dbds pass exceeds its work-unit budget over generated
      programs;
    - the service's cold path allocates more than its budget re-reading
      and re-writing IR text (parse, hash, canonical reply IR);
    - the workload-lab gates below fail.

    The front door's overload gate is the "bench: reduced load sweep"
    test of [test/test_frontdoor.ml]. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let () =
  let benches =
    List.concat_map
      (fun s -> s.Workloads.Suite.benchmarks)
      Workloads.Registry.all
  in
  let config = Dbds.Config.dbds in
  let compile_one ?(config = config) (b : Workloads.Suite.benchmark) ~jobs =
    let prog = Workloads.Suite.compile b in
    ignore (Dbds.Driver.optimize_program_report ~config ~jobs prog);
    prog
  in
  Printf.printf "bench-smoke: %d benchmarks across %d suites\n"
    (List.length benches)
    (List.length Workloads.Registry.all);
  (* Byte-identity of compiled IR across jobs. *)
  let print_at ?config jobs =
    let buf = Buffer.create 4096 in
    List.iter
      (fun b ->
        let prog = compile_one ?config b ~jobs in
        Ir.Program.iter_functions prog (fun g ->
            Buffer.add_string buf (Ir.Printer.graph_to_string g)))
      benches;
    Buffer.contents buf
  in
  let p1 = print_at 1 in
  if not (String.equal p1 (print_at 2)) then
    die "compiled IR differs between jobs=1 and jobs=2";
  if not (String.equal p1 (print_at 4)) then
    die "compiled IR differs between jobs=1 and jobs=4";
  Printf.printf "bench-smoke: IR byte-identical at jobs 1/2/4\n";
  (* Paranoid mode turns the pass manager's memo off: every classic pass
     runs on the whole graph instead of the region logged since it last
     ran clean. *)
  let whole = { config with Dbds.Config.verify_between_phases = true } in
  if not (String.equal p1 (print_at ~config:whole 1)) then
    die "compiled IR differs between region runs and whole-graph runs";
  Printf.printf "bench-smoke: IR byte-identical with the memo off\n";
  (* Compile-effort gate.  [pmd] inlines a recursive tree builder into
     its loop; when one PEA run replaces the whole allocation tree its
     compile costs 10,415 work units (10,723 while PEA swept for
     unreachable blocks after every CFG change, 14,747 while read
     elimination, conditional elimination and PEA walked whole blocks,
     16,302 while every classic pass ran on the whole graph), and when
     PEA could take only one nesting level per fixpoint round it cost
     44,114.  Work units do not depend on the host, so the gate holds on
     a single-core runner. *)
  let pmd_budget = 20_000 in
  let pmd =
    List.find (fun (b : Workloads.Suite.benchmark) -> b.name = "pmd") benches
  in
  let pmd_work =
    (Dbds.Driver.optimize_program_report ~config ~jobs:1
       (Workloads.Suite.compile pmd))
      .Dbds.Driver.rep_ctx.Opt.Phase.work
  in
  Printf.printf "bench-smoke: pmd compile work %d units (budget %d)\n"
    pmd_work pmd_budget;
  if pmd_work > pmd_budget then
    die "pmd compile work %d units > budget %d (nested allocations no longer \
         replaced in one PEA run?)"
      pmd_work pmd_budget;
  (* Effect-chain gate.  Read elimination, conditional elimination and
     PEA visit only each block's effect chain (its loads, stores, calls,
     allocations and compares) and PEA's allocation index.  Over the
     paper benchmarks they cost 27,130 work units while they walked
     every instruction of every block, 11,543 on effect chains, and
     9,196 since PEA sweeps for unreachable blocks only when an edge
     removal may have stranded one. *)
  let chain_budget = 12_700 in
  let chain_work =
    List.fold_left
      (fun acc b ->
        let rep =
          Dbds.Driver.optimize_program_report ~config ~jobs:1
            (Workloads.Suite.compile b)
        in
        List.fold_left
          (fun acc (name, (st : Opt.Phase.pass_stat)) ->
            if List.mem name [ "readelim"; "condelim"; "pea" ] then
              acc + st.pwork
            else acc)
          acc
          (Opt.Phase.pass_table rep.Dbds.Driver.rep_ctx))
      0 benches
  in
  Printf.printf
    "bench-smoke: readelim + condelim + pea work %d units (budget %d)\n"
    chain_work chain_budget;
  if chain_work > chain_budget then
    die "readelim + condelim + pea work %d units > budget %d (a pass walks \
         whole blocks instead of their effect chains?)"
      chain_work chain_budget;
  (* Duplication gate.  A duplication charges what it touches: its
     copy, the successor phis it patches and its SSA repair, plus one
     pass over the graph only when its loop-header check cannot answer
     from the round's dominator tree.  Over seeds 0-4 of the generated
     suite's shapes the dbds pass costs 113,682 work units; it cost
     181,993 while every duplication was charged the whole graph. *)
  let dup_budget = 130_000 in
  let dup_work =
    List.fold_left
      (fun acc shape ->
        List.fold_left
          (fun acc seed ->
            let rep =
              Dbds.Driver.optimize_program_report ~config ~jobs:1
                (Lang.Frontend.compile
                   (Workloads.Generated.source shape ~seed))
            in
            match
              List.assoc_opt "dbds"
                (Opt.Phase.pass_table rep.Dbds.Driver.rep_ctx)
            with
            | Some st -> acc + st.Opt.Phase.pwork
            | None -> acc)
          acc [ 0; 1; 2; 3; 4 ])
      0 Workloads.Generated.shapes
  in
  Printf.printf "bench-smoke: dbds work on generated shapes %d units (budget %d)\n"
    dup_work dup_budget;
  if dup_work > dup_budget then
    die "dbds work on generated shapes %d units > budget %d (a duplication \
         charged for the whole graph again?)"
      dup_work dup_budget;
  (* Cold-path text gate.  A cold request's server parses its IR, hashes
     it and writes the compiled body's canonical text.  Over the
     functions of perfbench's first 60 cold requests those three stages
     allocate 20,555 minor words a function; they allocated 94,648
     while the parser built lists and hash tables, the hash numbered
     ids in hash tables, and the canonical text was a print, a parse
     and a second print.  Allocation does not depend on the host, so
     the gate holds on any runner. *)
  let cold_budget = 26_000.0 in
  let cold_words = Cold.text_words_per_fn (Cold.functions ~programs:60) in
  Printf.printf
    "bench-smoke: cold-path parse + hash + canonical %.0f minor words per \
     function (budget %.0f)\n"
    cold_words cold_budget;
  if cold_words > cold_budget then
    die "cold-path parse + hash + canonical allocate %.0f minor words per \
         function > budget %.0f (a text stage builds lists or tables again?)"
      cold_words cold_budget;
  (* Warm service recompiles must return byte-identical artifacts. *)
  let s = Harness.Servicebench.measure_suite (List.hd Workloads.Registry.all) in
  if not s.Harness.Metrics.sv_identical then
    die "warm service recompile is not byte-identical to the cold compile";
  Printf.printf "bench-smoke: service warm pass identical (hit rate %.2f)\n"
    s.Harness.Metrics.sv_warm_hit_rate;
  (* Workload-lab gates.  (a) The adversarial suites run under every
     tier with agreeing results (Tiercompare raises otherwise) and the
     giant-switch suite shows a positive duplication win — at least one
     duplication tier beats the classic pipeline on total peak cycles.
     (b) The whole lab table is byte-deterministic across jobs. *)
  let lab = Harness.Tiercompare.run ~jobs:1 () in
  let disp_off =
    Harness.Tiercompare.suite_peak lab ~suite:"adv-dispatch" ~tier:"off"
  in
  let winners =
    List.filter
      (fun tier ->
        Harness.Tiercompare.suite_peak lab ~suite:"adv-dispatch" ~tier
        < disp_off)
      Harness.Tiercompare.duplication_tiers
  in
  Printf.printf
    "bench-smoke: lab table %d rows; adv-dispatch duplication winners: %s\n"
    (List.length lab)
    (if winners = [] then "none" else String.concat ", " winners);
  if winners = [] then
    die
      "no duplication tier beats off on the giant-switch suite (off total \
       %.0f cycles)"
      disp_off;
  let fp1 = Harness.Tiercompare.fingerprint ~jobs:1 () in
  let fp2 = Harness.Tiercompare.fingerprint ~jobs:2 () in
  let fp4 = Harness.Tiercompare.fingerprint ~jobs:4 () in
  if not (String.equal fp1 fp2 && String.equal fp1 fp4) then
    die "lab tier_compare fingerprint differs across jobs 1/2/4";
  Printf.printf "bench-smoke: lab tier_compare byte-identical at jobs 1/2/4 \
                 (%s)\n" fp1;
  print_endline "bench-smoke: OK"
