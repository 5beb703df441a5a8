(** Incremental analysis caching with per-kind validity.

    The dominator tree, loop forest and block frequencies are recomputed
    many times per compilation unit by the simulate → trade-off →
    optimize loop: every optimization phase, every duplication attempt
    and every cost estimate starts from [Dom.compute].  This module
    memoizes the three CFG analyses per graph.

    Validity is tracked {e per analysis kind}: each cached value carries
    the {!Graph.generation} it was computed (or last revalidated) at.  A
    mutation therefore invalidates by default — the generation moved on —
    but a pass that declares it preserves an analysis can call
    {!preserve} after running to re-stamp the cached value to the current
    generation, keeping e.g. the dominator tree alive across pure
    instruction rewrites (the pass manager's preservation contract;
    checked in paranoid mode by {!check}).

    The cache lives in the graph's {!Graph.cache} slot, so a
    {!Graph.snapshot} saves it and {!Graph.restore} brings it back.
    Every update replaces the entry record (copy-on-write) rather than
    mutating it in place, so the snapshot still holds the validity state
    it was taken in, and a restore revives the analyses that were valid
    there.

    The entry also holds the pass manager's clean stamps
    ({!note_pass_clean}): per pass, the {!Graph.log_length} at which
    the pass was last clean, so a restore rewinds them with the log.

    Thread-safety: a graph (and therefore its cache slot) is owned by
    exactly one domain at a time — the parallel driver partitions
    functions across workers — so no synchronization is needed. *)

type stats = { hits : int; misses : int }

(** The three cached CFG analyses — the vocabulary of pass preservation
    contracts. *)
type kind = Dom | Loops | Frequency

let kind_to_string = function
  | Dom -> "dom"
  | Loops -> "loops"
  | Frequency -> "frequency"

let all_kinds = [ Dom; Loops; Frequency ]

(* Validity stamps and values are immutable: every update allocates a
   fresh entry (see the copy-on-write note above).  Only the lifetime
   hit/miss counters mutate in place — they are monotone bookkeeping,
   not validity state (a restore brings back the snapshot's entry with
   whatever counts it holds by then). *)
type clean = { at : int; dom : Dom.t option }

type entry = {
  dom_gen : int;  (** generation {!dom_tree} is valid for; -1 = none *)
  dom_tree : Dom.t option;
  loops_gen : int;
  loop_headers : Loops.t option;
  freq_gen : int;
  freq : Frequency.t option;
  clean : (string * clean) list;
      (** per pass, where it was last known clean (a whole-graph run
          would fire nothing) — the pass manager's region memo *)
  mutable hits : int;  (** lifetime counters, carried across updates *)
  mutable misses : int;
}

type Graph.cache += Cache of entry

let empty_entry =
  {
    dom_gen = -1;
    dom_tree = None;
    loops_gen = -1;
    loop_headers = None;
    freq_gen = -1;
    freq = None;
    clean = [];
    hits = 0;
    misses = 0;
  }

let entry g =
  match Graph.cache g with Cache e -> e | _ -> { empty_entry with hits = 0 }

let store g e = Graph.set_cache g (Cache e)

let miss e =
  Probe.fire "analyses.cache";
  e.misses <- e.misses + 1

let dom g =
  let e = entry g in
  let gen = Graph.generation g in
  match e.dom_tree with
  | Some d when e.dom_gen = gen ->
      e.hits <- e.hits + 1;
      d
  | _ ->
      miss e;
      let d = Dom.compute g in
      store g { e with dom_gen = gen; dom_tree = Some d };
      d

let loops g =
  (* [dom] may replace the entry; re-fetch after it (computing an
     analysis does not mutate the graph, so the generation is stable). *)
  let d = dom g in
  let e = entry g in
  let gen = Graph.generation g in
  match e.loop_headers with
  | Some l when e.loops_gen = gen ->
      e.hits <- e.hits + 1;
      l
  | _ ->
      miss e;
      let l = Loops.compute d in
      store g { e with loops_gen = gen; loop_headers = Some l };
      l

let frequency g =
  let d = dom g in
  let l = loops g in
  let e = entry g in
  let gen = Graph.generation g in
  match e.freq with
  | Some f when e.freq_gen = gen ->
      e.hits <- e.hits + 1;
      f
  | _ ->
      miss e;
      let f = Frequency.compute d l in
      store g { e with freq_gen = gen; freq = Some f };
      f

(** Re-stamp the cached [kinds] of [g] to the current generation,
    provided they were valid at generation [since] — the pass manager's
    preservation contract: a pass that mutated the graph but declared it
    preserves an analysis keeps the value cached across its own
    mutations.  Kinds that were already stale at [since] (or never
    computed) are left alone: the contract only covers analyses that
    were valid when the pass started. *)
let preserve g ~since kinds =
  let gen = Graph.generation g in
  if gen <> since then begin
    let e = entry g in
    let e' =
      List.fold_left
        (fun e k ->
          match k with
          | Dom -> if e.dom_gen = since then { e with dom_gen = gen } else e
          | Loops ->
              if e.loops_gen = since then { e with loops_gen = gen } else e
          | Frequency ->
              if e.freq_gen = since then { e with freq_gen = gen } else e)
        e kinds
    in
    if e' != e then store g e'
  end

(* [List.assoc_opt] and [List.remove_assoc] on pass names, without
   their polymorphic compare: [clean_stamp] runs on every pass run. *)
let rec find_clean pass = function
  | (p, c) :: _ when String.equal p pass -> Some c
  | _ :: rest -> find_clean pass rest
  | [] -> None

let rec remove_clean pass = function
  | (p, _) :: rest when String.equal p pass -> rest
  | b :: rest -> b :: remove_clean pass rest
  | [] -> []

(** Where [pass] last ran clean on this graph state's history (see
    {!note_pass_clean}), if it did. *)
let clean_stamp g pass =
  match Graph.cache g with Cache e -> find_clean pass e.clean | _ -> None

(** Record that [pass] is clean on [g] as it is now (a whole-graph run
    would fire nothing): stamp the current log position and the
    dominator tree cached now, if it is valid.  Stored copy-on-write in
    the cache entry, so a restore brings back the stamps of the
    snapshot along with the graph and its log. *)
let note_pass_clean g pass =
  Graph.start_log g;
  let e = entry g in
  let dom =
    if e.dom_gen = Graph.generation g then e.dom_tree else None
  in
  let stamp = { at = Graph.log_length g; dom } in
  store g { e with clean = (pass, stamp) :: remove_clean pass e.clean }

(** Drop [g]'s mutation log once no region needs it: a pass stamped at
    the current position stays clean at the fresh log's position 0, and
    an older stamp is dropped along with the entries it would read.  The
    driver calls it when a function's pipeline is done, so a compiled
    graph does not keep its whole mutation history alive. *)
let drop_log g =
  let e = entry g in
  let now = Graph.log_length g in
  let clean =
    List.filter_map
      (fun (pass, c) -> if c.at = now then Some (pass, { c with at = 0 }) else None)
      e.clean
  in
  Graph.reset_log g;
  store g { e with clean }

(** Paranoid recompute-and-compare: does the cached, currently-valid
    value of [kind] (if any) equal a fresh computation?  Used to check
    preservation contracts; a [None]/stale cache trivially passes.  The
    fresh computation bypasses the cache and is discarded. *)
let check g kind =
  let e = entry g in
  let gen = Graph.generation g in
  let ok = function
    | true -> Ok ()
    | false ->
        Error
          (Printf.sprintf "cached %s differs from a fresh recompute"
             (kind_to_string kind))
  in
  match kind with
  | Dom -> (
      match e.dom_tree with
      | Some d when e.dom_gen = gen -> ok (Dom.equal d (Dom.compute g))
      | _ -> Ok ())
  | Loops -> (
      match e.loop_headers with
      | Some l when e.loops_gen = gen ->
          ok (Loops.equal l (Loops.compute (Dom.compute g)))
      | _ -> Ok ())
  | Frequency -> (
      match e.freq with
      | Some f when e.freq_gen = gen ->
          let d = Dom.compute g in
          ok (Frequency.equal f (Frequency.compute d (Loops.compute d)))
      | _ -> Ok ())

(** Lifetime hit/miss counters of a graph's cache (0/0 before any
    lookup).  A {!Graph.restore} brings back the snapshot's entry, and
    with it these counters. *)
let stats g =
  match Graph.cache g with
  | Cache e -> { hits = e.hits; misses = e.misses }
  | _ -> { hits = 0; misses = 0 }
