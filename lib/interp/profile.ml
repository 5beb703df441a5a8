(** Branch profiling.

    The paper's branch probabilities come from HotSpot's interpreter
    profiles (§5.3, citing Wade et al.); our source-level [@0.9]
    annotations are the convenient stand-in.  This module provides the
    measured alternative: run the program under the interpreter with a
    profile attached, record per-branch taken counts, then {!apply} the
    observed frequencies back onto the IR's [Branch] probabilities before
    compiling ([dbdsc --profile-runs]). *)

type key = string * Ir.Types.block_id

type t = {
  branches : (key, int ref * int ref) Hashtbl.t;
      (** (times the true edge was taken, total executions) *)
}

let create () = { branches = Hashtbl.create 64 }

let counters t fn bid =
  match Hashtbl.find_opt t.branches (fn, bid) with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace t.branches (fn, bid) c;
      c

(** Record one execution of the branch terminating [bid]. *)
let record t ~fn ~bid ~taken_true =
  let taken, total = counters t fn bid in
  if taken_true then incr taken;
  incr total

(* A branch needs this many executions before its observed probability
   replaces the static estimate. *)
let min_samples = 8

(* Applied probabilities stay inside [clamp, 1 - clamp]. *)
let clamp = 0.0001

(** Observed probability of the true edge, if the branch executed at
    least [min_samples] times. *)
let observed t ~fn ~bid =
  match Hashtbl.find_opt t.branches (fn, bid) with
  | Some (taken, total) when !total >= min_samples ->
      Some (float_of_int !taken /. float_of_int !total)
  | Some _ | None -> None

(** Total branch executions recorded. *)
let samples t =
  Hashtbl.fold (fun _ (_, total) acc -> acc + !total) t.branches 0

(** Fold over all recorded branches in deterministic (sorted-key)
    order. *)
let fold t ~init ~f =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.branches [] |> List.sort compare
  in
  List.fold_left
    (fun acc ((fn, bid) as k) ->
      let taken, total = Hashtbl.find t.branches k in
      f acc ~fn ~bid ~taken:!taken ~total:!total)
    init keys

(* Rewrite every profiled [Branch] probability in one graph from the
   recorded counts.  Branches never reached keep their static estimate
   (a real VM would treat them as never-taken and speculate; we stay
   conservative).  Probabilities are clamped away from 0/1 so cold paths
   keep a nonzero frequency, as HotSpot does. *)
let apply_graph t g =
  let clamp_prob p = Float.max clamp (Float.min (1.0 -. clamp) p) in
  let fn = Ir.Graph.name g in
  Ir.Graph.iter_blocks g (fun bid ->
      match Ir.Graph.term g bid with
      | Ir.Types.Branch br -> (
          match observed t ~fn ~bid with
          | Some p ->
              Ir.Graph.set_term g bid
                (Ir.Types.Branch { br with prob = clamp_prob p })
          | None -> ())
      | Ir.Types.Jump _ | Ir.Types.Return _ | Ir.Types.Unreachable -> ())

(** {!apply_graph} over every function of the program. *)
let apply t program = Ir.Program.iter_functions program (apply_graph t)
