(** The IR interpreter — the measurement substrate standing in for the
    paper's hardware testbed.

    Executing an instruction charges its node-cost-model cycles; entering
    a basic block consults a block-granular LRU instruction-cache model
    (see DESIGN.md §2): a miss charges a penalty proportional to the
    block's code size.  Because duplication-enabled optimizations remove
    dynamically executed instructions, "peak performance" (total charged
    cycles on a workload) genuinely improves — and unbounded duplication
    (dupalot) can regress it by blowing the i-cache, reproducing the
    paper's raytrace observation. *)

open Ir.Types

type value = VInt of int | VNull | VObj of int

type icache_config = {
  enabled : bool;
  capacity : int;  (** total cached code size, abstract bytes *)
  miss_penalty_base : float;
  miss_penalty_per_byte : float;
}

let default_icache =
  {
    enabled = true;
    capacity = 768;
    miss_penalty_base = 16.0;
    miss_penalty_per_byte = 1.0;
  }

let no_icache = { default_icache with enabled = false }

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

type state = {
  program : Ir.Program.t;
  profile : Profile.t option;  (** record branch outcomes when present *)
  icache_config : icache_config;
  (* LRU as an association list (fn, block) -> size, most recent
     first; small capacities keep this cheap. *)
  mutable icache : ((string * int) * int) list;
  mutable icache_used : int;
  heap : (int, string * value array) Hashtbl.t;
  globals : (string, value) Hashtbl.t;
  mutable next_obj : int;
  mutable fuel : int;
  stats : stats;
}

let fresh_stats () =
  {
    cycles = 0.0;
    instrs_executed = 0;
    icache_hits = 0;
    icache_misses = 0;
    allocations = 0;
    calls = 0;
  }

let charge st c = st.stats.cycles <- st.stats.cycles +. c

let icache_touch st fn g bid =
  let cfg = st.icache_config in
  if cfg.enabled then begin
    let key = (fn, bid) in
    match List.assoc_opt key st.icache with
    | Some size ->
        (* hit: move to front *)
        st.stats.icache_hits <- st.stats.icache_hits + 1;
        st.icache <- (key, size) :: List.remove_assoc key st.icache
    | None ->
        let size = Costmodel.Estimate.block_size g bid in
        st.stats.icache_misses <- st.stats.icache_misses + 1;
        charge st
          (cfg.miss_penalty_base +. (cfg.miss_penalty_per_byte *. float_of_int size));
        st.icache <- (key, size) :: st.icache;
        st.icache_used <- st.icache_used + size;
        while st.icache_used > cfg.capacity && st.icache <> [] do
          match List.rev st.icache with
          | (victim, vsize) :: _ ->
              st.icache <- List.remove_assoc victim st.icache;
              st.icache_used <- st.icache_used - vsize
          | [] -> ()
        done
  end

let as_int = function
  | VInt n -> n
  | VNull -> raise (Runtime_error "expected int, got null")
  | VObj _ -> raise (Runtime_error "expected int, got object")

let truthy = function VInt 0 -> false | VInt _ -> true | VNull -> false | VObj _ -> true

let eval_cmp_values op a b =
  match (op, a, b) with
  | _, VInt x, VInt y -> VInt (eval_cmp op x y)
  | Eq, VNull, VNull -> VInt 1
  | Ne, VNull, VNull -> VInt 0
  | Eq, VObj x, VObj y -> VInt (if x = y then 1 else 0)
  | Ne, VObj x, VObj y -> VInt (if x = y then 0 else 1)
  | Eq, (VNull | VObj _), (VNull | VObj _) -> VInt 0
  | Ne, (VNull | VObj _), (VNull | VObj _) -> VInt 1
  | _ -> raise (Runtime_error "invalid comparison operands")

let field_slot st cls field =
  match Ir.Program.field_index st.program cls field with
  | Some i -> i
  | None ->
      raise (Runtime_error (Printf.sprintf "unknown field %s.%s" cls field))

(* Evaluate one function body; [args] are the parameter values. *)
let rec eval_function st (g : Ir.Graph.t) (args : value array) : value option =
  let fn = Ir.Graph.name g in
  let env = Array.make (Ir.Graph.n_instrs g) VNull in
  let eval_instr id =
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    st.stats.instrs_executed <- st.stats.instrs_executed + 1;
    let kind = Ir.Graph.kind g id in
    charge st (Costmodel.Cost.cycles_of_kind kind);
    let v x = env.(x) in
    let result =
      match kind with
      | Const n -> VInt n
      | Null -> VNull
      | Param i ->
          if i < Array.length args then args.(i)
          else raise (Runtime_error "missing argument")
      | Binop (op, a, b) -> VInt (eval_binop op (as_int (v a)) (as_int (v b)))
      | Cmp (op, a, b) -> eval_cmp_values op (v a) (v b)
      | Neg a -> VInt (- as_int (v a))
      | Not a -> VInt (if truthy (v a) then 0 else 1)
      | Phi _ -> assert false (* handled on edges *)
      | New (cls, cargs) ->
          let n_fields =
            match Ir.Program.find_class st.program cls with
            | Some c -> List.length c.Ir.Program.fields
            | None -> Array.length cargs
          in
          let fields = Array.make n_fields (VInt 0) in
          Array.iteri (fun i a -> if i < n_fields then fields.(i) <- v a) cargs;
          let oid = st.next_obj in
          st.next_obj <- oid + 1;
          st.stats.allocations <- st.stats.allocations + 1;
          Hashtbl.replace st.heap oid (cls, fields);
          VObj oid
      | Load (o, f) -> (
          match v o with
          | VObj oid ->
              let cls, fields = Hashtbl.find st.heap oid in
              fields.(field_slot st cls f)
          | VNull -> raise (Runtime_error "null dereference (load)")
          | VInt _ -> raise (Runtime_error "load from non-object"))
      | Store (o, f, x) -> (
          match v o with
          | VObj oid ->
              let cls, fields = Hashtbl.find st.heap oid in
              fields.(field_slot st cls f) <- v x;
              VInt 0
          | VNull -> raise (Runtime_error "null dereference (store)")
          | VInt _ -> raise (Runtime_error "store to non-object"))
      | Load_global gl ->
          Option.value ~default:(VInt 0) (Hashtbl.find_opt st.globals gl)
      | Store_global (gl, x) ->
          Hashtbl.replace st.globals gl (v x);
          VInt 0
      | Call (callee, cargs) -> (
          st.stats.calls <- st.stats.calls + 1;
          match Ir.Program.find_function st.program callee with
          | Some callee_g ->
              Option.value ~default:(VInt 0)
                (eval_function st callee_g (Array.map v cargs))
          | None ->
              raise (Runtime_error (Printf.sprintf "unknown function %s" callee)))
    in
    env.(id) <- result
  in
  (* Evaluate the target's phis simultaneously from the edge values. *)
  let enter_block from target =
    let idx = Ir.Graph.pred_index g target from in
    let moves = ref [] in
    Ir.Graph.iter_phis g target (fun phi_id ->
        match Ir.Graph.kind g phi_id with
        | Phi inputs -> moves := (phi_id, env.(inputs.(idx))) :: !moves
        | _ -> assert false);
    List.iter (fun (phi_id, v) -> env.(phi_id) <- v) !moves
  in
  (* Iterative block dispatch so long-running loops use constant stack. *)
  let current = ref (Ir.Graph.entry g) in
  let result = ref None in
  let running = ref true in
  while !running do
    let bid = !current in
    icache_touch st fn g bid;
    Ir.Graph.iter_body g bid eval_instr;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    let term = Ir.Graph.term g bid in
    charge st (Costmodel.Cost.of_term term).Costmodel.Cost.cycles;
    match term with
    | Return None -> running := false
    | Return (Some v) ->
        result := Some env.(v);
        running := false
    | Unreachable -> raise (Runtime_error "reached unreachable")
    | Jump target ->
        enter_block bid target;
        current := target
    | Branch { cond; if_true; if_false; _ } ->
        let taken_true = truthy env.(cond) in
        (match st.profile with
        | Some profile -> Profile.record profile ~fn ~bid ~taken_true
        | None -> ());
        let target = if taken_true then if_true else if_false in
        enter_block bid target;
        current := target
  done;
  !result

let create ?(icache = default_icache) ?(fuel = 10_000_000) ?profile program =
  {
    program;
    profile;
    icache_config = icache;
    icache = [];
    icache_used = 0;
    heap = Hashtbl.create 64;
    globals = Hashtbl.create 8;
    next_obj = 0;
    fuel;
    stats = fresh_stats ();
  }

let main_graph st =
  match Ir.Program.find_function st.program st.program.Ir.Program.main with
  | Some g -> g
  | None ->
      raise
        (Runtime_error
           (Printf.sprintf "no main function %s" st.program.Ir.Program.main))

let sorted_globals st =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) st.globals []
  |> List.sort compare

(** Run a program's main function on integer arguments.  Returns the
    result (if any) and the accumulated statistics. *)
let run ?icache ?fuel ?profile program ~args =
  let st = create ?icache ?fuel ?profile program in
  let g = main_graph st in
  let result = eval_function st g (Array.map (fun n -> VInt n) args) in
  (result, st.stats)

(** Run a single graph (wrapped as a program) — convenient in tests. *)
let run_graph ?icache ?fuel ?classes ?globals g ~args =
  run ?icache ?fuel (Ir.Program.of_graph ?classes ?globals g) ~args

(** Like {!run}, but also returns the final global-variable bindings
    (sorted by name) — the full observable state, used by differential
    tests. *)
let run_full ?icache ?fuel ?profile program ~args =
  let st = create ?icache ?fuel ?profile program in
  let g = main_graph st in
  let result = eval_function st g (Array.map (fun n -> VInt n) args) in
  (result, st.stats, sorted_globals st)

(** The profile-guided step before a compile: interpret [program] [runs]
    times (at least once) with one profile attached, then rewrite its
    branch probabilities from the recording ({!Profile.apply}).
    Returns the profile and the last run's {!run_full} triple. *)
let profile_guided ?icache ~runs program ~args =
  let profile = Profile.create () in
  let last = ref (run_full ?icache ~profile program ~args) in
  for _ = 2 to runs do
    last := run_full ?icache ~profile program ~args
  done;
  Profile.apply profile program;
  (profile, !last)

let value_to_string = function
  | VInt n -> string_of_int n
  | VNull -> "null"
  | VObj n -> Printf.sprintf "obj#%d" n

let result_to_string = function
  | None -> "(void)"
  | Some v -> value_to_string v
