(** All benchmark suites, in paper order, plus the adversarial lab. *)

let all : Suite.t list =
  [ Dacapo.suite; Scala_dacapo.suite; Micro.suite; Octane.suite ]

(** The workload-lab suites (not part of [all]: the paper-figure
    harnesses iterate [all], the lab has its own tier harness). *)
let adversarial : Suite.t list = Advgen.suites
