(** Multicore fan-out: a stdlib-[Domain] worker pool.

    [map ~jobs f items] applies [f] to every item on up to [jobs] domains
    (the calling domain included) and returns the results in input order
    — deterministic for any [jobs].  Each item is processed by exactly
    one domain; [f] must only mutate state owned by its item.  Exceptions
    are re-raised in the calling domain (earliest-indexed failure wins),
    with backtraces preserved.  A raising worker — or a failing spawn —
    never leaves sibling domains unjoined: all domains are joined before
    anything propagates (explicit join-all-then-reraise).

    [map_weighted] is the size-aware variant: items are dispatched in
    descending weight order (longest-processing-time-first), bounding the
    makespan at 4/3 · OPT; the shared cursor doubles as work stealing.
    Output is identical to [map]'s for the same inputs. *)

(** [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_weighted ~jobs ~weight f items]: {!map} with
    longest-processing-time-first dispatch by [weight] (ties broken by
    input position, so the schedule is deterministic). *)
val map_weighted :
  jobs:int ->
  weight:('a -> int) ->
  ('a -> 'b) ->
  'a list ->
  'b list
