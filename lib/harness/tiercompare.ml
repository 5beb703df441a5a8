(** Tier comparison over the adversarial workload lab ({!Workloads.Advgen}).

    Every lab benchmark is compiled and run under five tiers:

    - [off] — the classic pipeline, no duplication;
    - [condelim_dup] — greedy conditional elimination through
      duplication (arXiv 1106.3478), no trade-off;
    - [dbds] / [dupalot] / [backtracking] — the paper's tiers.

    Per cell we record peak cycles, code size, compile work and the
    tier's decision count (duplications).  All tiers must agree on every
    benchmark's result — the lab's differential invariant — and the
    whole table must be byte-deterministic at any [jobs] value, which
    {!fingerprint} lets CI check cheaply. *)

let tiers : (string * Dbds.Config.t) list =
  [
    ("off", Dbds.Config.off);
    ("condelim_dup", Dbds.Config.condelim_dup);
    ("dbds", Dbds.Config.dbds);
    ("dupalot", Dbds.Config.dupalot);
    ("backtracking", Dbds.Config.backtracking);
  ]

(** The tiers that duplicate code (candidates for the lab's
    giant-switch win gate). *)
let duplication_tiers = [ "condelim_dup"; "dbds"; "dupalot"; "backtracking" ]

let measure_benchmark ?jobs ~suite (b : Workloads.Suite.benchmark) =
  let measured = Runner.measure_agreeing ?jobs tiers b in
  {
    Metrics.tc_suite = suite;
    tc_benchmark = b.Workloads.Suite.name;
    tc_cells =
      List.map
        (fun (tier, (m : Metrics.measurement)) ->
          {
            Metrics.tc_tier = tier;
            tc_peak_cycles = m.Metrics.peak_cycles;
            tc_code_size = m.Metrics.code_size;
          })
        measured;
  }

(** The full lab table: every adversarial benchmark under every tier. *)
let run ?jobs () =
  List.concat_map
    (fun (s : Workloads.Suite.t) ->
      List.map
        (measure_benchmark ?jobs ~suite:s.Workloads.Suite.suite_name)
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.adversarial

(** Hex digest of the optimized IR of every lab benchmark under every
    tier — the cheap cross-[jobs] byte-identity probe for CI. *)
let fingerprint ?jobs () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (s : Workloads.Suite.t) ->
      List.iter
        (fun (b : Workloads.Suite.benchmark) ->
          List.iter
            (fun (tier, config) ->
              Buffer.add_string buf
                (Printf.sprintf "%s/%s/%s\n" s.Workloads.Suite.suite_name
                   b.Workloads.Suite.name tier);
              let prog = Workloads.Suite.compile b in
              ignore (Dbds.Driver.optimize_program_report ~config ?jobs prog);
              Ir.Program.iter_functions prog (fun g ->
                  Buffer.add_string buf (Ir.Printer.graph_to_string g)))
            tiers)
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.adversarial;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** Peak-cycle total of one tier over one suite's rows. *)
let suite_peak rows ~suite ~tier =
  List.fold_left
    (fun acc (r : Metrics.tier_row) ->
      if r.Metrics.tc_suite <> suite then acc
      else
        List.fold_left
          (fun acc (c : Metrics.tier_cell) ->
            if c.Metrics.tc_tier = tier then acc +. c.Metrics.tc_peak_cycles
            else acc)
          acc r.Metrics.tc_cells)
    0.0 rows

let pp ppf rows =
  let current = ref "" in
  List.iter
    (fun (r : Metrics.tier_row) ->
      if r.Metrics.tc_suite <> !current then begin
        current := r.Metrics.tc_suite;
        Fmt.pf ppf "@.[%s]@." r.Metrics.tc_suite
      end;
      Fmt.pf ppf "  %-10s" r.Metrics.tc_benchmark;
      let off =
        List.find
          (fun (c : Metrics.tier_cell) -> c.Metrics.tc_tier = "off")
          r.Metrics.tc_cells
      in
      List.iter
        (fun (c : Metrics.tier_cell) ->
          if c.Metrics.tc_tier <> "off" then
            Fmt.pf ppf " %s:%+.1f%%/%+d"
              c.Metrics.tc_tier
              (Metrics.pct_change
                 ~base:(max off.Metrics.tc_peak_cycles 1.0)
                 c.Metrics.tc_peak_cycles)
              (c.Metrics.tc_code_size - off.Metrics.tc_code_size))
        r.Metrics.tc_cells;
      Fmt.pf ppf "@.")
    rows;
  Fmt.pf ppf
    "@.(per tier: peak-cycle delta vs off — negative = faster — and code-size \
     delta)@."
