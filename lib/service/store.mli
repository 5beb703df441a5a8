(** The on-disk content-addressed artifact store.

    One file per digest ([<digest>.art] under the store directory)
    holding the optimized IR plus the compile effort that produced it.
    Three disciplines make it safe to share between processes and to
    survive crashes:

    - {e atomic publication}: artifacts are written to a temp file in
      the store directory and [rename]d into place, so a reader never
      observes a half-written entry under its final name;
    - {e checksum verification}: every read re-hashes the payload
      against the recorded checksum (and the recorded digest against
      the file name); any mismatch — a torn write, bit rot, a truncated
      file — evicts the entry and degrades to a {e miss}, never a
      crash;
    - {e size-bounded LRU GC}: publishing past [capacity] evicts
      least-recently-used artifacts until the budget holds.

    Store operations announce the {!Dbds.Faults.store_sites} fault
    sites, so the fuzzer can tear writes and publications
    deterministically; all injected faults (and real [Sys_error]s) are
    contained inside the store as degraded operations.

    The store holds text, never a graph.  Its one compiling client is
    the {!Broker}, which digests a request, runs {!lookup}, compiles on
    a miss and {!put}s the result. *)

type entry = {
  ar_fn : string;  (** function name the artifact was compiled from *)
  ar_ir : string;  (** optimized IR, canonical {!Ir.Printer} text *)
  ar_work : int;  (** work units the original compilation charged *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;  (** includes corrupt / failed reads *)
  mutable writes : int;  (** successful publications *)
  mutable write_failures : int;  (** torn or failed writes, contained *)
  mutable read_failures : int;  (** injected / IO read failures, contained *)
  mutable corrupt : int;  (** checksum or format mismatches, evicted *)
  mutable evictions : int;  (** LRU GC victims *)
}

type t

(** Open (creating if needed) a store rooted at [dir].  [capacity] is
    the artifact-byte budget the LRU GC maintains (default 8 MiB).
    [env] supplies clock/disk/lock capabilities (default {!Env.real});
    the whole-system simulator passes its own. *)
val create : ?env:Env.t -> ?capacity:int -> dir:string -> unit -> t

val dir : t -> string
val stats : t -> stats

(** Artifact bytes currently accounted to the store. *)
val used : t -> int

(** Look an artifact up by digest on the local disk only.  Bumps LRU
    recency on a hit; evicts and reports a miss on corruption. *)
val get : t -> digest:string -> entry option

(** Publish an artifact under [digest] (atomic; runs the LRU GC).
    Failures are contained and counted, never raised. *)
val put : t -> digest:string -> fn:string -> ir:string -> work:int -> unit

(** The lookup chain the broker runs: parsed memo → local disk
    ({!get}, checksummed).

    - The IR is parse-validated the first time an entry comes from
      disk.  A checksummed artifact that does not parse is evicted
      (counted [corrupt]).
    - A verified disk read is memoized (the entry, not a graph: every
      reader wants the text) while the entry stays indexed, so repeat
      lookups skip the filesystem and the parser entirely.  The memo
      is dropped whenever the entry is evicted, discarded or
      republished.
    - A miss probes the disk exactly once; the cold-compile fallback
      stays with the caller.
    - [memory_only] (default [false]) stops after the parsed memo: the
      chain's in-memory prefix, which never reads disk, parses or
      reaches a fault site — cheap enough for an event loop. *)
val lookup : ?memory_only:bool -> t -> digest:string -> entry option

val pp_stats : Format.formatter -> stats -> unit
