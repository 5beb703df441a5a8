(** The simulated environment: a {!Service.Env.t} backed by the
    deterministic scheduler — virtual clocks, an in-memory network with
    per-link latency (1 ms a chunk) plus seeded drop/reorder/duplicate/
    partition faults, and an in-memory disk (2 ms an operation) with
    slow IO, torn writes, and crash-mid-rename.

    Environment faults reuse the service's {!Dbds.Faults.plan} grammar:
    each plan arms one {!Dbds.Faults.sim_sites} site with a hit count,
    and the optional [fn] component matches as a substring of the
    operation's tag (a link name like ["conn3:client-2->server"] or a
    file path), so [net.drop:2:client-2] drops the second chunk that
    client ever sends.  Fault decisions are pure counter arithmetic —
    no randomness beyond the seeded scheduler — so a seed plus a plan
    list replays exactly. *)

(** A hard simulated crash (process death mid-operation).  Deliberately
    {e not} a [Sys_error]: the store's containment must not see it, so
    it propagates like a power cut and leaves whatever state was on the
    simulated disk at that instant. *)
exception Crashed of string

type t

(** A fresh network and disk on [sched], with the environment [faults]
    armed (default none).  A [clock.jump:N] plan steps the wall clock
    +1h at virtual second N; the monotonic clock never moves back or
    jumps. *)
val create : ?faults:Dbds.Faults.plan list -> Sched.t -> t

(** The environment record: its threads are fibers of the scheduler,
    compute threads included. *)
val env : t -> Service.Env.t
