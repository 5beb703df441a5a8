(** Resilience fuzzing: drive random {!Workloads.Progen} programs
    through random fault plans and check the containment contract —
    no exception escapes the driver, contained functions roll back to
    byte-identical pre-attempt IR, and runs are deterministic across
    [jobs] values.  Everything is seeded; violations reproduce. *)

type result = {
  pairs_run : int;  (** (graph seed × fault plan) pairs executed *)
  contained : int;  (** contained failures observed (at [List.hd jobs]) *)
  by_site : (string * int) list;  (** ... broken down per crash site *)
  violations : string list;  (** invariant breaches; [[]] = pass *)
}

(** Fuzz the containment contract over [graph_seeds] × [plans_per_graph]
    pairs, each at every jobs value in [jobs_matrix].  Defaults: 25
    seeds × 4 plans = 100 pairs, at [jobs:1] and [jobs:4]. *)
val run :
  ?graph_seeds:int list ->
  ?plans_per_graph:int ->
  ?jobs_matrix:int list ->
  unit ->
  result

type service_result = {
  s_pairs_run : int;  (** (graph seed × store fault plan) pairs executed *)
  s_store_hits : int;  (** store hits observed across warm passes *)
  s_recovered : int;
      (** contained store degradations: torn writes, read faults and
          corrupt entries that were evicted and recompiled *)
  s_violations : string list;  (** property breaches; [[]] = pass *)
}

(** Fuzz the artifact store over random programs × random
    {!Dbds.Faults.store_sites} plans (torn temp writes, torn
    publications, read faults).  Each pair runs a cold pass (empty
    store) and a warm pass (recompile against whatever the faulty cold
    pass published — including torn files) at every [jobs] value, and
    asserts: no exception escapes the driver; both passes produce
    canonical IR byte-identical to an uncached reference compile
    (corrupted artifacts must be evicted and recompiled, never served);
    outputs and store counters agree across the [jobs_matrix].
    Defaults: 10 seeds × 3 plans, at [jobs:1] and [jobs:4]. *)
val run_service :
  ?graph_seeds:int list ->
  ?plans_per_graph:int ->
  ?jobs_matrix:int list ->
  unit ->
  service_result

type frontdoor_result = {
  f_decoder_cases : int;  (** byte strings fed to the pure decoder *)
  f_stream_cases : int;  (** chunked streams read by the blocking reader *)
  f_server_runs : int;  (** simulated garbage-client server runs *)
  f_rejected : int;  (** structured rejections observed end-to-end *)
  f_violations : string list;  (** hardening breaches; [[]] = pass *)
}

(** Fuzz the frontdoor's wire decoder.  Two layers: the pure
    incremental decoder ({!Service.Protocol.decode}) on random garbage,
    garbage behind the ["dbds/1 "] header prefix, and
    mutations/truncations of well-formed messages — any structured
    outcome is acceptable and raising is the bug, except that bytes
    which cannot begin ["dbds/1 "] must be an [Err] at once and a
    newline-free line behind the prefix must be an [Err] past
    [max_line_bytes]; the blocking {!Service.Protocol.receive} on
    [decoder_cases / 4] streams of 1–3 rendered messages cut into
    random chunks over a simulated connection — it must return exactly
    those messages, and a truncated tail before the close must not
    read as a clean ["eof"]; then [server_seeds] simulated
    garbage-client runs against a live {!Service.Frontdoor} — junk
    must earn a structured rejection or a clean close (never an
    escaping exception or a wedged event loop), and a fresh
    well-formed connection must still be served afterwards.
    Everything is seeded; violations reproduce. *)
val run_frontdoor :
  ?decoder_cases:int -> ?server_seeds:int -> unit -> frontdoor_result

type lab_result = {
  l_pairs_run : int;
      (** (program × tier × fault plan) jobs-identity pairs executed *)
  l_paranoid_runs : int;  (** paranoid (contract-audited) driver runs *)
  l_regions_checked : int;
      (** region runs whose whole-graph re-run was checked *)
  l_violations : string list;  (** property breaches; [[]] = pass *)
}

(** Fuzz the workload lab.  Corpus: every adversarial benchmark plus
    [progen_seeds] random programs with the irreducible-region flag on.
    Three properties over the condelim_dup tier (dbds as control):
    whole-run byte identity between [jobs:1] and [jobs:4], with and
    without fault plans; the paranoid driver (verifier + preserves
    audits) contains nothing on the clean corpus; and after each
    region run of a classic pass (see {!Opt.Phase.t.region}) a
    whole-graph run of the same pass on a copy fires nothing. *)
val run_lab :
  ?progen_seeds:int list -> ?plans_per_pair:int -> unit -> lab_result

type region_result = {
  r_programs : int;
  r_functions : int;
  r_violations : string list;  (** [[]] = pass *)
}

(** The region-run oracle: compile every paper program, every lab
    program and the progen programs of [progen_seeds] (default 0–199,
    irreducible regions on) under [Config.dbds], where passes run on
    the regions the mutation log names, and under the same config in
    paranoid mode, where the memo is off and every pass runs on the
    whole graph.  Each function's printed IR (raw ids) and duplication
    stats must be byte-identical. *)
val run_regions : ?progen_seeds:int list -> unit -> region_result

type paranoid_result = {
  pa_compiles : int;  (** program × config compiles *)
  pa_violations : string list;  (** [[]] = pass *)
}

(** Paranoid compiles of progen programs: seeds 0–199 plain and with
    irreducible regions under [Config.condelim_dup], plain under
    [Config.dbds] (the irreducible ones are {!run_regions}' whole-graph
    compiles), and seeds 0–19 of both kinds under [Config.backtracking],
    which reruns the whole optimizer per attempt with the memo off
    (about 0.5 s a program).  The verifier runs after every pass and
    every duplication (it checks, among the rest, that a graph whose
    reachability bit is clear has no unreachable block), and the
    compiles must contain nothing. *)
val run_paranoid : unit -> paranoid_result

type sccp_result = {
  sc_programs : int;
  sc_functions : int;
  sc_violations : string list;  (** [[]] = pass *)
}

(** The guard on the DBDS round's action steps, which leave SCCP out:
    compile every paper and lab program and [shape_seeds] (default
    0–59) programs of each generated shape of the [aot-generated]
    benchmark suite (six progen sizes, dispatch loops of 4 and 8
    handlers) under [Config.dbds]; then one SCCP run on a copy of each
    compiled function must fire nothing.  The progen programs are
    {!run_quiescent}'s: it compiles them under the same config and runs
    SCCP among the other passes. *)
val run_sccp_after_dbds : ?shape_seeds:int list -> unit -> sccp_result

type quiescent_result = {
  qu_programs : int;  (** program × config compiles *)
  qu_functions : int;
  qu_capped : int;
      (** fix groups that stopped at their [rounds] cap, summed over
          every compile *)
  qu_violations : string list;  (** [[]] = pass *)
}

(** The classic fixpoint ends quiescent: compile the progen programs of
    [progen_seeds] (default 0–199), plain and with irreducible regions,
    under [Config.off] and [Config.dbds]; then each classic pass, SCCP
    included, run once over the whole of a copy of each compiled
    function must fire nothing.  Also counts the fix groups that
    stopped at their [rounds] cap rather than at quiescence. *)
val run_quiescent : ?progen_seeds:int list -> unit -> quiescent_result
