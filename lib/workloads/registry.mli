(** All benchmark suites, in paper order (Figures 5–8), plus the
    adversarial workload lab. *)

val all : Suite.t list

(** The four workload-lab suites ({!Advgen}); kept out of [all] so the
    paper-figure harnesses and their digests are untouched. *)
val adversarial : Suite.t list
