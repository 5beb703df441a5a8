(** Multicore fan-out: a stdlib-[Domain] worker pool (OCaml 5, no
    external dependencies).

    [map ~jobs f items] applies [f] to every item and returns the results
    {e in input order}, regardless of which worker ran which item or in
    what order they finished — so callers observe deterministic output
    for any [jobs].  Items are dispatched dynamically (an atomic cursor),
    which load-balances uneven per-item cost; each item is processed by
    exactly one domain.

    [map_weighted ~jobs ~weight f items] additionally applies
    longest-processing-time-first scheduling: items are dispatched in
    descending [weight] order (ties broken by input position, so the
    dispatch schedule is deterministic), which bounds the makespan at
    4/3 · OPT instead of 2 · OPT for arbitrary arrival order.  The
    shared atomic cursor doubles as work stealing — a worker that
    finishes early simply claims the next-heaviest remaining item.
    Results still come back in input order, and because each item is
    owned by exactly one domain the output is byte-identical to the
    sequential run for any [jobs].

    Exceptions raised by [f] are captured per item and re-raised in the
    calling domain (the earliest-indexed failure wins), with their
    backtrace preserved.

    Ownership discipline: [f] must only mutate state reachable from its
    own item (the driver passes one function graph per item and merges
    per-worker contexts afterwards).  Shared lookups (e.g. the program's
    class table) must be read-only. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Join every domain, even if some join re-raises a worker's uncaught
   exception; the earliest-spawned failure is re-raised only after all
   siblings have terminated (no orphaned domains, no wedged cursor). *)
let join_all helpers =
  let first_error = ref None in
  List.iter
    (fun d ->
      try Domain.join d
      with e ->
        if !first_error = None then
          first_error := Some (e, Printexc.get_raw_backtrace ()))
    helpers;
  match !first_error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Shared pool body: run [f] over [arr] with [jobs] domains pulling
   positions in [order] (the dispatch schedule) through one atomic
   cursor.  Results land at their original index. *)
let run_pool ~jobs f arr order =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let continue_ = ref true in
    while !continue_ do
      let k = Atomic.fetch_and_add next 1 in
      if k >= n then continue_ := false
      else begin
        let i = order.(k) in
        results.(i) <-
          Some
            (try Ok (f arr.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()))
      end
    done
  in
  (* Spawn helpers one at a time: if a spawn fails (resource
     exhaustion), the domains already running are joined before the
     error propagates — no orphans draining the cursor unwatched. *)
  let helpers = ref [] in
  (try
     for _ = 1 to jobs - 1 do
       helpers := Domain.spawn worker :: !helpers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     join_all !helpers;
     Printexc.raise_with_backtrace e bt);
  (* The calling domain works too: jobs domains total.  [worker]
     captures per-item exceptions, so it normally cannot raise; the
     explicit join-all-then-reraise path below keeps the guarantee
     even for asynchronous exceptions (Out_of_memory, Stack_overflow)
     in the caller's slice. *)
  (match worker () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try join_all !helpers with _ -> ());
      Printexc.raise_with_backtrace e bt);
  join_all !helpers;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

let identity_order n = Array.init n (fun i -> i)

let map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else run_pool ~jobs f arr (identity_order n)

(** [lpt_order weights] is the longest-processing-time-first dispatch
    schedule: item positions sorted by descending weight, ties broken by
    ascending input position (deterministic for equal weights). *)
let lpt_order weights =
  let order = identity_order (Array.length weights) in
  Array.sort
    (fun a b ->
      let c = compare weights.(b) weights.(a) in
      if c <> 0 then c else compare a b)
    order;
  order

(** Size-aware {!map}: dispatch in descending [weight] order (LPT) so a
    heavyweight item claimed late cannot stretch the makespan.  Same
    determinism guarantees as {!map}. *)
let map_weighted ~jobs ~weight f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else run_pool ~jobs f arr (lpt_order (Array.map weight arr))
