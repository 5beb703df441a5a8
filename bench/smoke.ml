(** CI bench-smoke: the identity and lab gates, fast enough to run on
    every push.

    Fails (exit 1) when:
    - the compiled IR of every paper benchmark stops being
      byte-identical across jobs values, or between region runs and
      whole-graph runs of the classic passes;
    - warm service recompiles ({!Harness.Fuzz.cold_warm} over every
      function of the first suite) stop being byte-identical to cold
      ones;
    - [pmd]'s compile effort exceeds its work-unit budget;
    - read elimination, conditional elimination and PEA together
      exceed their work-unit budget over the paper benchmarks;
    - the dbds pass exceeds its work-unit budget over generated
      programs;
    - simplify-cfg, gvn and the trade-off together exceed their
      allocation budget over the same programs, or conditional and read
      elimination theirs;
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
  Printf.printf "bench-smoke: %d benchmarks across %d suites\n"
    (List.length benches)
    (List.length Workloads.Registry.all);
  (* Byte-identity of compiled IR across jobs.  [compile_at] returns the
     printed IR with each benchmark's report; the work gates below read
     the jobs-1 reports. *)
  let compile_at ?(config = config) jobs =
    let buf = Buffer.create 4096 in
    let reports =
      List.map
        (fun (b : Workloads.Suite.benchmark) ->
          let prog = Workloads.Suite.compile b in
          let rep = Dbds.Driver.optimize_program_report ~config ~jobs prog in
          Ir.Program.iter_functions prog (fun g ->
              Buffer.add_string buf (Ir.Printer.graph_to_string g));
          (b.name, rep))
        benches
    in
    (Buffer.contents buf, reports)
  in
  let print_at ?config jobs = fst (compile_at ?config jobs) in
  let p1, reports1 = compile_at 1 in
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
  let pmd_work =
    (List.assoc "pmd" reports1).Dbds.Driver.rep_ctx.Opt.Phase.work
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
      (fun acc (_, rep) ->
        List.fold_left
          (fun acc (name, (st : Opt.Phase.pass_stat)) ->
            if List.mem name [ "readelim"; "condelim"; "pea" ] then
              acc + st.pwork
            else acc)
          acc
          (Opt.Phase.pass_table rep.Dbds.Driver.rep_ctx))
      0 reports1
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
  (* Allocation gate, over the same compiles.  The rows of simplify-cfg,
     gvn and the trade-off allocate per block or instruction they
     visit: simplify-cfg and the trade-off read blocks through
     counters and iterators, and the region forms dedup the mutation
     log through a per-domain stamp set.  Over seeds 0-4 of the
     generated shapes the three rows allocate 2,711,915 minor words;
     they allocated 3,723,133 while simplify-cfg built predecessor and
     phi lists, the trade-off built every block's instruction list and
     every log read allocated a seen set the size of the arena.  At
     jobs 1 allocation does not depend on the host. *)
  let words_budget = 3_200_000 in
  let words_rows = [ "simplify-cfg"; "gvn"; "dbds.tradeoff" ] in
  (* Allocation gate on the dominator walks, over the same compiles.
     Most runs of conditional and read elimination fire nothing, and
     such a run costs its set-up and its log reads: the log is read in
     one loop, with no closure call or list per entry, and a block's
     single predecessor is read without building its predecessor list.
     Over seeds 0-4 of the generated shapes the two rows allocate
     1,740,064 minor words; they allocated 2,122,259 while every log
     entry went through two closures and every single-predecessor test
     built a list. *)
  let walk_budget = 1_950_000 in
  let walk_rows = [ "condelim"; "readelim" ] in
  let dup_work, words, walk_words =
    List.fold_left
      (fun acc shape ->
        List.fold_left
          (fun (work, words, walk_words) seed ->
            let rep =
              Dbds.Driver.optimize_program_report ~config ~jobs:1
                (Lang.Frontend.compile
                   (Workloads.Generated.source shape ~seed))
            in
            List.fold_left
              (fun (work, words, walk_words)
                   (name, (st : Opt.Phase.pass_stat)) ->
                let count rows n =
                  if List.mem name rows then n + st.minor_words else n
                in
                ( (if name = "dbds" then work + st.pwork else work),
                  count words_rows words,
                  count walk_rows walk_words ))
              (work, words, walk_words)
              (Opt.Phase.pass_table rep.Dbds.Driver.rep_ctx))
          acc [ 0; 1; 2; 3; 4 ])
      (0, 0, 0) Workloads.Generated.shapes
  in
  Printf.printf "bench-smoke: dbds work on generated shapes %d units (budget %d)\n"
    dup_work dup_budget;
  if dup_work > dup_budget then
    die "dbds work on generated shapes %d units > budget %d (a duplication \
         charged for the whole graph again?)"
      dup_work dup_budget;
  Printf.printf
    "bench-smoke: simplify-cfg + gvn + dbds.tradeoff on generated shapes %d \
     minor words (budget %d)\n"
    words words_budget;
  if words > words_budget then
    die "simplify-cfg + gvn + dbds.tradeoff allocate %d minor words > budget \
         %d (a CFG walk builds lists or an arena-sized set again?)"
      words words_budget;
  Printf.printf
    "bench-smoke: condelim + readelim on generated shapes %d minor words \
     (budget %d)\n"
    walk_words walk_budget;
  if walk_words > walk_budget then
    die "condelim + readelim allocate %d minor words > budget %d (a log \
         read or a predecessor test allocates per entry again?)"
      walk_words walk_budget;
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
  (* Warm service recompiles must return byte-identical artifacts: every
     function of the first suite, inlined and with its program's
     context as [dbdsc --connect] sends it, through a broker's cold and
     warm pass. *)
  let requests =
    List.concat_map
      (fun b ->
        let context, units =
          Service.Client.units (Workloads.Suite.compile b)
        in
        List.map (fun (fn, ir) -> (fn, ir, context)) units)
      (List.hd Workloads.Registry.all).Workloads.Suite.benchmarks
  in
  let leg = Harness.Fuzz.cold_warm ~config ~workers:1 requests in
  let ir_of = function Service.Broker.Done { ir; _ } -> Some ir | _ -> None in
  let cold = List.map ir_of leg.Harness.Fuzz.cold in
  if List.mem None cold || List.map ir_of leg.Harness.Fuzz.warm <> cold then
    die "warm service recompile is not byte-identical to the cold compile";
  let hits =
    List.filter
      (function Service.Broker.Done { from_cache; _ } -> from_cache | _ -> false)
      leg.Harness.Fuzz.warm
  in
  Printf.printf "bench-smoke: service warm pass identical (hit rate %.2f)\n"
    (float_of_int (List.length hits) /. float_of_int (List.length requests));
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
