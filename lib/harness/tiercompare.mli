(** Tier comparison over the adversarial workload lab: every
    {!Workloads.Registry.adversarial} benchmark compiled and run under
    the five tiers (off, condelim_dup, dbds, dupalot, backtracking),
    with a cross-[jobs] determinism fingerprint.  See DESIGN.md §15. *)

(** The tier labels and configurations, in report column order. *)
val tiers : (string * Dbds.Config.t) list

(** Labels of tiers that duplicate code. *)
val duplication_tiers : string list

(** The full lab table, suite by suite.
    @raise Runner.Benchmark_failed when any tier's result disagrees. *)
val run : ?jobs:int -> unit -> Metrics.tier_row list

(** Hex digest of every lab benchmark's optimized IR under every tier —
    must be identical for any [jobs]. *)
val fingerprint : ?jobs:int -> unit -> string

(** Total peak cycles of [tier] over [suite]'s rows. *)
val suite_peak : Metrics.tier_row list -> suite:string -> tier:string -> float

val pp : Format.formatter -> Metrics.tier_row list -> unit
