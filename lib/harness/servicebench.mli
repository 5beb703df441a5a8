(** Compilation-service checks under the harness.

    [measure_suite]: every function of every benchmark of a suite
    becomes one compile request — the function's IR after inlining, as
    [dbdsc --connect] sends it, with its program's context (class
    layouts and globals, {!Service.Digest.context_of_program}).
    Benchmarks are built by {!Workloads.Suite.compile}, so a suite
    authored as IR sends its functions too.  Each request goes twice
    through an in-process {!Service.Broker} whose store is rooted in a
    scratch directory:

    - the {e cold} pass starts from an empty store — every request
      misses, runs the full pipeline and publishes its artifact;
    - the {e warm} pass re-issues the same requests against the
      populated store — every request should be served from it.

    The warm pass's canonical IR must be byte-identical to the cold
    pass's — the store must be a pure accelerator, never an
    answer-changer.  Service timing is perfbench's
    [service_cpu_ms_per_req]. *)

(** Check one suite; the scratch store directory is removed on exit.
    @raise Invalid_argument when the suite yields no request: a check
    over nothing passes on nothing. *)
val measure_suite : Workloads.Suite.t -> Metrics.service_row

(** The frontdoor overload sweep, under the deterministic simulator:
    a broker whose artificial compile stretch fixes the service
    capacity at [capacity_rps] ([workers]/[delay]), fronted by the
    event-loop {!Service.Frontdoor}, swept with open-loop arrivals at
    each multiple in [mults] of that capacity (default 0.5x, 1x, 2x
    and 4x).  Each request is a {e distinct} function (its own
    generator seed), so neither broker coalescing nor the artifact
    store can flatter the numbers.

    [queue_limit] (default 2) is deliberately tight: overload is shed
    at admission with a retry-after hint instead of queueing deep,
    which is what keeps the p99 bounded at 2x — the acceptance
    gate.  Virtual time makes the row deterministic for a
    given [seed]; wall-clock only pays for the native compiles. *)
val load_sweep :
  ?capacity_rps:float ->
  ?workers:int ->
  ?queue_limit:int ->
  ?requests:int ->
  ?mults:float list ->
  ?seed:int ->
  unit ->
  Metrics.frontdoor_row
