(** Deterministic fault injection for the DBDS pipeline.

    The optimizer has a handful of named {e sites} — points where real
    failures have bitten or could bite: an opportunity check in the
    simulation tier, the duplication transform mid-mutation, SSA
    reconstruction, a worker domain picking up a function, an analysis
    cache miss.  A {e fault plan} [(seed, site, nth-hit)] arms exactly
    one of them: the [nth] time that site executes inside a matching
    function's per-function pipeline, {!Injected} is raised.

    Hit counting is {e per function}: the registry is armed by the
    driver around each function's pipeline ({!armed}) and counts hits in
    thread-local state.  Because every function is optimized by exactly
    one thread and its pipeline is sequential, the [nth] hit of a site
    within a function is a deterministic point — independent of how many
    worker domains run and of scheduling.  The same plan therefore
    crashes the same functions at the same instruction under [jobs:1]
    and [jobs:N], which is what makes contained failures reproducible
    and crash bundles replayable.

    Sites below the [dbds] library ([ssa.repair], [analyses.cache]) are
    reached through {!Ir.Probe}: this module installs the process-wide
    probe handler at load time. *)

type site =
  | Sim_opportunity  (** an applicability check fired in a DST *)
  | Transform_apply  (** the duplication transform, mid-mutation *)
  | Ssa_repair  (** SSA reconstruction after a duplication *)
  | Parallel_worker  (** a worker domain picking up a function *)
  | Analyses_cache  (** an analysis-cache miss (a real recompute) *)
  | Store_write  (** the artifact store, mid-payload (torn temp write) *)
  | Store_read  (** the artifact store reading an entry back *)
  | Store_rename  (** the atomic publish rename (torn publication) *)
  | Store_corrupt
      (** publish a subtly-wrong artifact with a {e valid} checksum — a
          deliberate bug the whole-system simulator's invariant checker
          must catch (never armed by seed derivation) *)
  | Net_drop  (** a transport chunk is lost; the connection resets *)
  | Net_reorder  (** a transport chunk is delivered out of order *)
  | Net_dup  (** a transport chunk is delivered twice *)
  | Net_partition  (** the network partitions for a window of time *)
  | Disk_slow  (** one disk operation stalls for a long time *)
  | Disk_torn  (** a file write is cut short mid-payload *)
  | Disk_crash  (** a crash between data write and publication rename *)
  | Clock_jump  (** the wall clock steps forward (NTP); mono is steady *)

let pipeline_sites =
  [ Sim_opportunity; Transform_apply; Ssa_repair; Parallel_worker; Analyses_cache ]

let store_sites = [ Store_write; Store_read; Store_rename ]

let sim_sites =
  [
    Net_drop;
    Net_reorder;
    Net_dup;
    Net_partition;
    Disk_slow;
    Disk_torn;
    Disk_crash;
    Clock_jump;
  ]

let all_sites = pipeline_sites @ store_sites @ (Store_corrupt :: sim_sites)

let site_to_string = function
  | Sim_opportunity -> "sim.opportunity"
  | Transform_apply -> "transform.apply"
  | Ssa_repair -> "ssa.repair"
  | Parallel_worker -> "parallel.worker"
  | Analyses_cache -> "analyses.cache"
  | Store_write -> "store.write"
  | Store_read -> "store.read"
  | Store_rename -> "store.rename"
  | Store_corrupt -> "store.corrupt"
  | Net_drop -> "net.drop"
  | Net_reorder -> "net.reorder"
  | Net_dup -> "net.dup"
  | Net_partition -> "net.partition"
  | Disk_slow -> "disk.slow"
  | Disk_torn -> "disk.torn"
  | Disk_crash -> "disk.crash"
  | Clock_jump -> "clock.jump"

let site_of_string = function
  | "sim.opportunity" -> Some Sim_opportunity
  | "transform.apply" -> Some Transform_apply
  | "ssa.repair" -> Some Ssa_repair
  | "parallel.worker" -> Some Parallel_worker
  | "analyses.cache" -> Some Analyses_cache
  | "store.write" -> Some Store_write
  | "store.read" -> Some Store_read
  | "store.rename" -> Some Store_rename
  | "store.corrupt" -> Some Store_corrupt
  | "net.drop" -> Some Net_drop
  | "net.reorder" -> Some Net_reorder
  | "net.dup" -> Some Net_dup
  | "net.partition" -> Some Net_partition
  | "disk.slow" -> Some Disk_slow
  | "disk.torn" -> Some Disk_torn
  | "disk.crash" -> Some Disk_crash
  | "clock.jump" -> Some Clock_jump
  | _ -> None

type plan = {
  seed : int;  (** provenance: the fuzz seed this plan was derived from *)
  site : site;
  hit : int;  (** 1-based: the [hit]-th execution of [site] raises *)
  fn : string option;  (** only arm for this function ([None] = all) *)
}

exception Injected of { site : site; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
        Some
          (Printf.sprintf "Faults.Injected(%s, hit %d)" (site_to_string site)
             hit)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Plan syntax: "site:hit", "site:hit:fn", "seed:N"                    *)
(* ------------------------------------------------------------------ *)

let to_string p =
  let base = Printf.sprintf "%s:%d" (site_to_string p.site) p.hit in
  match p.fn with None -> base | Some fn -> base ^ ":" ^ fn

(** Derive a pseudorandom plan from a seed: a pipeline site and a small
    hit index, uniformly.  Deterministic in [seed].  Drawn from
    {!pipeline_sites} only, so historical seeds keep crashing at the
    same points; store sites are armed explicitly
    ({!of_seed_store}). *)
let of_seed seed =
  let rng = Random.State.make [| 0x0fa17; seed |] in
  let site =
    List.nth pipeline_sites (Random.State.int rng (List.length pipeline_sites))
  in
  let hit = 1 + Random.State.int rng 6 in
  { seed; site; hit; fn = None }

(** Like {!of_seed}, over the artifact-store sites — the plans the
    service fuzzer feeds the compilation cache. *)
let of_seed_store seed =
  let rng = Random.State.make [| 0x570fa17; seed |] in
  let site =
    List.nth store_sites (Random.State.int rng (List.length store_sites))
  in
  let hit = 1 + Random.State.int rng 2 in
  { seed; site; hit; fn = None }

let of_string s =
  match String.split_on_char ':' s with
  | [ "seed"; n ] -> (
      match int_of_string_opt n with
      | Some seed -> Ok (of_seed seed)
      | None -> Error (Printf.sprintf "invalid fault seed %S" n))
  | site :: hit :: rest -> (
      match (site_of_string site, int_of_string_opt hit) with
      | None, _ ->
          Error
            (Printf.sprintf "unknown fault site %S (known: %s)" site
               (String.concat ", " (List.map site_to_string all_sites)))
      | _, None -> Error (Printf.sprintf "invalid hit count %S" hit)
      | Some site, Some hit when hit >= 1 ->
          let fn =
            match rest with [] -> None | parts -> Some (String.concat ":" parts)
          in
          Ok { seed = 0; site; hit; fn }
      | _ -> Error "hit count must be >= 1")
  | _ ->
      Error
        (Printf.sprintf
           "cannot parse fault plan %S (expected site:hit[:fn] or seed:N)" s)

(* ------------------------------------------------------------------ *)
(* Arming and hit counting (thread-local)                              *)
(* ------------------------------------------------------------------ *)

type armed_state = { plan : plan; mutable count : int }

(* The armed states of the domain's system threads, by thread id —
   empty unless some thread is armed, so an unarmed [hit] costs one
   domain-local read. *)
let state_key : (int * armed_state) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

(* A domain's threads interleave at allocation points, so the
   read-modify-write of the list is serialized; readers see a whole
   list either way. *)
let state_mx = Mutex.create ()

(* Where the registry keeps its armed state.  The default is
   thread-local storage — every function is optimized by exactly one
   thread, so the [nth] hit of a site within a function is
   scheduling-independent, and a thread waiting beside a compile (a
   service dispatcher, say) never sees another thread's arming.  The
   whole-system simulator runs many logical tasks as fibers inside ONE
   thread; it swaps in a fiber-local provider so arming in one task
   cannot leak into an interleaved task (see {!set_state_provider}). *)
type state_provider = {
  sp_get : unit -> armed_state option;
  sp_set : armed_state option -> unit;
}

let thread_provider =
  {
    sp_get =
      (fun () ->
        match Domain.DLS.get state_key with
        | [] -> None
        | states -> List.assoc_opt (Thread.id (Thread.self ())) states);
    sp_set =
      (fun v ->
        let id = Thread.id (Thread.self ()) in
        Mutex.protect state_mx (fun () ->
            let others = List.remove_assoc id (Domain.DLS.get state_key) in
            Domain.DLS.set state_key
              (match v with None -> others | Some st -> (id, st) :: others)));
  }

let provider = ref thread_provider
let set_state_provider ~get ~set = provider := { sp_get = get; sp_set = set }
let default_state_provider () = provider := thread_provider
let get_state () = !provider.sp_get ()
let set_state v = !provider.sp_set v

(** [armed plan ~fn f] runs [f] with the registry armed for function
    [fn] under [plan] ([None] or a non-matching [plan.fn] arm nothing).
    The hit counter starts fresh; the previous arming is restored on
    exit, exceptional or not. *)
let armed plan ~fn f =
  match plan with
  | None -> f ()
  | Some p when p.fn <> None && p.fn <> Some fn -> f ()
  | Some p ->
      let prev = get_state () in
      set_state (Some { plan = p; count = 0 });
      Fun.protect ~finally:(fun () -> set_state prev) f

(** Announce one execution of [site].  No-op unless armed for it; raises
    {!Injected} on the plan's hit. *)
let hit site =
  match get_state () with
  | Some st when st.plan.site = site ->
      st.count <- st.count + 1;
      if st.count = st.plan.hit then
        raise (Injected { site; hit = st.count })
  | _ -> ()

(* Wire the IR-level probes ("ssa.repair", "analyses.cache") into the
   registry.  Installed once, when the dbds library loads. *)
let () =
  Ir.Probe.set_handler (fun name ->
      match site_of_string name with Some s -> hit s | None -> ())
