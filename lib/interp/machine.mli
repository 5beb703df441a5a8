(** The IR interpreter — the measurement substrate standing in for the
    paper's hardware testbed.

    Executing an instruction charges its node-cost-model cycles; entering
    a basic block consults a block-granular LRU instruction-cache model:
    a miss charges a penalty proportional to the block's code size.
    Because duplication-enabled optimizations remove dynamically executed
    instructions, "peak performance" (total charged cycles on a workload)
    genuinely improves — and unbounded duplication (dupalot) can regress
    it by blowing the i-cache, reproducing the paper's raytrace
    observation. *)

type value = VInt of int | VNull | VObj of int

type icache_config = {
  enabled : bool;
  capacity : int;  (** total cached code size, abstract bytes *)
  miss_penalty_base : float;
  miss_penalty_per_byte : float;
}

(** 768 bytes, miss penalty 16 + 1.0/byte. *)
val default_icache : icache_config

(** The cache model disabled (pure cost-model cycles). *)
val no_icache : icache_config

type stats = {
  mutable cycles : float;
  mutable instrs_executed : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable allocations : int;
  mutable calls : int;
}

exception Out_of_fuel
exception Runtime_error of string

(** Run a program's main function on integer arguments.  Returns the
    result (if any) and the accumulated statistics.
    @param fuel instruction budget (default 10M); {!Out_of_fuel} beyond.
    @param profile when given, records every branch outcome. *)
val run :
  ?icache:icache_config ->
  ?fuel:int ->
  ?profile:Profile.t ->
  Ir.Program.t ->
  args:int array ->
  value option * stats

(** Run a single graph (wrapped as a program) — convenient in tests. *)
val run_graph :
  ?icache:icache_config ->
  ?fuel:int ->
  ?classes:Ir.Program.class_decl list ->
  ?globals:string list ->
  Ir.Graph.t ->
  args:int array ->
  value option * stats

(** Like {!run}, but also returns the final global-variable bindings
    (sorted by name) — the full observable state, used by differential
    tests. *)
val run_full :
  ?icache:icache_config ->
  ?fuel:int ->
  ?profile:Profile.t ->
  Ir.Program.t ->
  args:int array ->
  value option * stats * (string * value) list

(** The profile-guided step before a compile: interpret [program] [runs]
    times (at least once) with one profile attached, then rewrite its
    branch probabilities from the recording ({!Profile.apply}).
    Returns the profile and the last run's {!run_full} triple.  Both
    [dbdsc --profile-runs] and the [lib/vm] engine take this step. *)
val profile_guided :
  ?icache:icache_config ->
  runs:int ->
  Ir.Program.t ->
  args:int array ->
  Profile.t * (value option * stats * (string * value) list)

val result_to_string : value option -> string
