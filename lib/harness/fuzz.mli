(** Fuzzing.  Three fuzzers drive their own inputs: the containment
    contract under fault plans, the artifact store under store faults,
    and the frontdoor's wire decoder under garbage.  The compile matrix
    compiles a fixed corpus once per (program, config, memo-on or
    paranoid) row and runs a list of oracles over those compiles.
    Everything is seeded; violations reproduce. *)

(** One fuzzer's or oracle's outcome.  The first count is the number of
    items checked. *)
type result = {
  name : string;
  counts : (string * int) list;
  violations : string list;  (** [[]] = pass *)
  seconds : float;  (** wall time *)
}

(** The containment contract over 25 {!Workloads.Progen} seeds × 4
    fault plans, each pair at [jobs:1] and [jobs:4]: no exception
    escapes the driver, contained functions roll back to byte-identical
    pre-attempt IR, and the runs are identical across jobs values. *)
val run_containment : unit -> result

(** [with_scratch_dir prefix f] runs [f] on a fresh temporary
    directory named after [prefix] and removes it, with the files in
    it, when [f] returns or raises (best effort: a leftover temporary
    directory is harmless). *)
val with_scratch_dir : string -> (string -> 'a) -> 'a

(** One broker's two passes over a request list, in request order. *)
type cold_warm = {
  cold : Service.Broker.outcome list;  (** against an empty store *)
  warm : Service.Broker.outcome list;  (** against what the cold pass published *)
  store : Service.Store.stats;  (** the store's counters after both passes *)
}

(** [cold_warm ~config ~workers requests] sends every [(fn, ir,
    context)] request through an in-process {!Service.Broker} with
    [workers] workers, submitted from as many domains, whose store is a
    scratch directory removed on exit: once against the empty store,
    then again against what that pass published.  A store that is a
    pure accelerator answers the warm pass from the store with the cold
    pass's IR.
    @raise Invalid_argument on an empty request list: a check over
    nothing passes on nothing. *)
val cold_warm :
  config:Dbds.Config.t ->
  workers:int ->
  (string * string * string) list ->
  cold_warm

(** The artifact store over 6 random programs × 3 random
    {!Dbds.Faults.store_sites} plans (torn temp writes, torn
    publications, read faults).  Each pair sends every post-inline
    function, with its program's context, through {!cold_warm} at 1
    and 4 workers: a cold pass (empty store) and a warm pass (against
    whatever the faulty cold pass published, torn files included).  No
    exception escapes the broker; both passes reply with canonical IR
    byte-identical to a direct, storeless, class-aware compile (corrupt
    artifacts are evicted and recompiled, never served); replies and
    store counters agree across worker counts. *)
val run_service : unit -> result

(** The frontdoor's wire decoder.  400 adversarial byte strings through
    the pure decoder ({!Service.Protocol.decode}) and 100 chunked
    streams through the blocking {!Service.Protocol.receive}: nothing
    raises, bytes that cannot begin ["dbds/1 "] are refused at once, a
    newline-free line is refused past [max_line_bytes], a stream reads
    back exactly what was rendered and a truncated tail is not a clean
    ["eof"].  Then 8 simulated garbage-client runs against a live
    {!Service.Frontdoor}: junk earns a structured rejection or a clean
    close, and a fresh well-formed connection is still served. *)
val run_frontdoor : unit -> result

(** {2 The compile matrix} *)

type part = Paper | Lab | Progen | Progen_irr | Generated

(** A named builder of a fresh program. *)
type program = {
  name : string;
  part : part;
  seed : int;
  fresh : unit -> Ir.Program.t;
}

(** The 46 paper programs, the 12 lab programs, progen seeds 0–199
    plain and with irreducible regions, and seeds 0–59 of each of the 8
    {!Workloads.Generated.shapes}. *)
val corpus : program list

(** A paranoid row compiles with [verify_between_phases] on, which
    turns the pass memo off: every pass runs on the whole graph and the
    verifier runs after every pass and duplication. *)
type row = {
  config_name : string;
  config : Dbds.Config.t;
  paranoid : bool;
  covers : program -> bool;
}

(** One program compiled under one row, at jobs 1. *)
type compiled

val compile_row : row -> program -> compiled

(** [check] gets one program's compiles and returns counts (the first
    is the number of items checked) and violations. *)
type oracle = {
  name : string;
  check : compiled list -> (string * int) list * string list;
}

(** After a memo-on compile, no classic pass, SCCP included, fires on a
    whole-graph run over a copy of any function.  The fix groups that
    stopped at their [rounds] cap are counted and named. *)
val quiescence : oracle

(** The matrix: dbds memo-on over the whole corpus; off memo-on and
    dbds paranoid over all but the generated shapes; condelim_dup
    memo-on over the lab set (the lab programs and progen-irr 0–1) and
    paranoid over the lab programs and progen; dbds_paths paranoid over
    progen-irr; backtracking paranoid over progen 0–19.  Each program
    is compiled under every row that covers it, and every oracle checks
    that program's compiles:
    - [clean]: no compile raises or fails verification;
    - [regions]: a memo-on compile prints the same raw-id IR and
      duplication stats as the paranoid compile of the same config;
    - [quiescence], above;
    - [audit]: whenever a memo-on compile of the lab set stamps a pass
      clean after a region run or a run that changed the graph, the
      pass over the whole of a copy fires nothing;
    - [jobs]: over the lab set under condelim_dup and dbds, a jobs-4
      run is byte-identical to the matrix compile, and with a fault
      plan jobs 1 and jobs 4 agree;
    - [valtab]: every compiled function's dominator walk, run with
      {!Opt.Valtab} and with a [Hashtbl] keyed by
      {!Opt.Gvn.key_of_kind} as its scoped table, gets the same hit or
      miss from both on every lookup: each instruction's own kind,
      added on a miss, and the kind with its operands swapped.
    Returns a ["matrix"] result (compiles per row, compile time)
    followed by one result per oracle. *)
val run_matrix : unit -> result list
