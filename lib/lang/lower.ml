(** AST → SSA lowering, using the on-the-fly SSA construction of
    Braun et al. ("Simple and Efficient Construction of Static Single
    Assignment Form", CC 2013): local variables are written and read
    per-block; reads in unsealed blocks create operandless phis that are
    completed when the block's predecessors are final; trivial phis are
    removed recursively.

    Short-circuit [&&]/[||] lower to control flow and therefore introduce
    merges with phis — prime duplication candidates, mirroring how Java
    bytecode produces them. *)

open Ast
module G = Ir.Graph
module T = Ir.Types

exception Lower_error of string

let err fmt = Fmt.kstr (fun s -> raise (Lower_error s)) fmt

type ctx = {
  g : G.t;
  prog : Ast.program;
  locals : (string, int) Hashtbl.t;
      (** function-local names, interned to dense indices *)
  local_names : string array;  (** index -> name (for diagnostics) *)
  n_locals : int;
  (* The Braun construction's state lives in growable arrays indexed by
     id: no [Hashtbl] and no allocation per variable read or write. *)
  mutable def_keys : int array;
      (** [current_defs]: an open-addressing table keyed
          [block * n_locals + local] ([-1]: empty slot), with linear
          probing — sized by the definitions made, not by blocks x
          locals *)
  mutable def_values : int array;
  mutable def_bits : int;  (** [Array.length def_keys = 1 lsl def_bits] *)
  mutable def_count : int;
  mutable sealed : bool array;  (** by block *)
  mutable incomplete : (int * T.value) list array;
      (** by block: the operandless phis (local, phi) awaiting its seal *)
  mutable resolved : int array;
      (** by value: forwarding for removed trivial phis ([-1]: none) *)
  mutable cur : T.block_id;
  mutable terminated : bool;
      (** the current linear flow ended in a return; skip dead code *)
}

(* [a] grown (by doubling) to hold index [i], new slots [fill]. *)
let ensure a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let a' = Array.make (max (i + 1) (2 * n)) fill in
    Array.blit a 0 a' 0 n;
    a'
  end

let rec resolve ctx v =
  if v >= Array.length ctx.resolved || ctx.resolved.(v) < 0 then v
  else
    let v' = ctx.resolved.(v) in
    let final = resolve ctx v' in
    if final <> v' then ctx.resolved.(v) <- final;
    final

let forward ctx v ~to_ =
  ctx.resolved <- ensure ctx.resolved v (-1);
  ctx.resolved.(v) <- to_

(* Fibonacci hashing: the top [def_bits] bits of the key's product with
   2^63 / phi. *)
let def_slot ctx key =
  let mask = (1 lsl ctx.def_bits) - 1 in
  let rec probe i =
    let k = ctx.def_keys.(i) in
    if k = key || k < 0 then i else probe ((i + 1) land mask)
  in
  probe ((key * 0x4F1BBCDCBFA53E0B) lsr (63 - ctx.def_bits))

let rec write_var ctx block local value =
  let key = (block * ctx.n_locals) + local in
  let i = def_slot ctx key in
  if ctx.def_keys.(i) = key then ctx.def_values.(i) <- value
  else if 2 * (ctx.def_count + 1) > Array.length ctx.def_keys then begin
    (* Keep the load at most 1/2: rehash into twice the slots. *)
    let keys = ctx.def_keys and values = ctx.def_values in
    ctx.def_bits <- ctx.def_bits + 1;
    ctx.def_keys <- Array.make (1 lsl ctx.def_bits) (-1);
    ctx.def_values <- Array.make (1 lsl ctx.def_bits) 0;
    Array.iteri
      (fun j k ->
        if k >= 0 then begin
          let i = def_slot ctx k in
          ctx.def_keys.(i) <- k;
          ctx.def_values.(i) <- values.(j)
        end)
      keys;
    write_var ctx block local value
  end
  else begin
    ctx.def_keys.(i) <- key;
    ctx.def_values.(i) <- value;
    ctx.def_count <- ctx.def_count + 1
  end

let is_sealed ctx block = block < Array.length ctx.sealed && ctx.sealed.(block)

let rec read_var ctx block local =
  let key = (block * ctx.n_locals) + local in
  let i = def_slot ctx key in
  if ctx.def_keys.(i) = key then resolve ctx ctx.def_values.(i)
  else read_var_recursive ctx block local

and read_var_recursive ctx block local =
  let value =
    if not (is_sealed ctx block) then begin
      (* Incomplete CFG: create an operandless phi and complete it when
         the block is sealed. *)
      let phi = G.append ctx.g block (T.Phi [||]) in
      ctx.incomplete <- ensure ctx.incomplete block [];
      ctx.incomplete.(block) <- (local, phi) :: ctx.incomplete.(block);
      phi
    end
    else
      match G.pred_count ctx.g block with
      | 0 -> err "variable '%s' read before assignment" ctx.local_names.(local)
      | 1 -> read_var ctx (G.pred_nth ctx.g block 0) local
      | _ ->
          (* Break potential cycles with an operandless phi first. *)
          let phi = G.append ctx.g block (T.Phi [||]) in
          write_var ctx block local phi;
          add_phi_operands ctx block local phi
  in
  write_var ctx block local value;
  value

and add_phi_operands ctx block local phi =
  let inputs =
    Array.init (G.pred_count ctx.g block) (fun i ->
        read_var ctx (G.pred_nth ctx.g block i) local)
  in
  G.set_kind ctx.g phi (T.Phi inputs);
  try_remove_trivial ctx phi

(* A phi is trivial when its inputs, forwarded and without the phi
   itself, are one value. *)
and try_remove_trivial ctx phi =
  match G.kind ctx.g phi with
  | T.Phi inputs ->
      let same = ref (-1) and many = ref false in
      Array.iter
        (fun v ->
          let v = resolve ctx v in
          if v <> phi then
            if !same < 0 then same := v else if v <> !same then many := true)
        inputs;
      if !same < 0 || !many then phi
      else begin
        let same = !same in
        (* Collect phi users before rewriting; they may become trivial. *)
        let phi_users = ref [] in
        G.iter_uses_enc ctx.g phi (fun e ->
            let u = G.user_target e in
            if
              (not (G.user_is_term e))
              && u <> phi && G.instr_exists ctx.g u
              && match G.kind ctx.g u with T.Phi _ -> true | _ -> false
            then phi_users := u :: !phi_users);
        G.replace_uses ctx.g phi ~by:same;
        forward ctx phi ~to_:same;
        G.remove_instr ctx.g phi;
        List.iter
          (fun u ->
            if G.instr_exists ctx.g u then ignore (try_remove_trivial ctx u))
          (List.rev !phi_users);
        resolve ctx same
      end
  | _ -> phi

let seal_block ctx block =
  if block < Array.length ctx.incomplete then begin
    let pending = ctx.incomplete.(block) in
    ctx.incomplete.(block) <- [];
    List.iter
      (fun (local, phi) ->
        if G.instr_exists ctx.g phi then
          ignore (add_phi_operands ctx block local phi))
      pending
  end;
  ctx.sealed <- ensure ctx.sealed block false;
  ctx.sealed.(block) <- true

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let append ctx kind = G.append ctx.g ctx.cur kind

let is_global ctx name =
  List.exists (fun gd -> gd.gd_name = name) ctx.prog.Ast.globals

let ir_binop : Ast.binop -> T.binop option = function
  | Add -> Some T.Add
  | Sub -> Some T.Sub
  | Mul -> Some T.Mul
  | Div -> Some T.Div
  | Rem -> Some T.Rem
  | BitAnd -> Some T.And
  | BitOr -> Some T.Or
  | BitXor -> Some T.Xor
  | Shl -> Some T.Shl
  | Shr -> Some T.Shr
  | _ -> None

let ir_cmpop : Ast.binop -> T.cmpop option = function
  | Eq -> Some T.Eq
  | Ne -> Some T.Ne
  | Lt -> Some T.Lt
  | Le -> Some T.Le
  | Gt -> Some T.Gt
  | Ge -> Some T.Ge
  | _ -> None

let rec lower_expr ctx = function
  | EInt n -> append ctx (T.Const n)
  | EBool b -> append ctx (T.Const (if b then 1 else 0))
  | ENull -> append ctx T.Null
  | EVar name -> (
      match Hashtbl.find_opt ctx.locals name with
      | Some local -> read_var ctx ctx.cur local
      | None ->
          if is_global ctx name then append ctx (T.Load_global name)
          else err "unknown variable '%s'" name)
  | EUnop (Neg, e) ->
      let v = lower_expr ctx e in
      append ctx (T.Neg v)
  | EUnop (Not, e) ->
      let v = lower_expr ctx e in
      append ctx (T.Not v)
  | EBinop (AndAlso, a, b) -> lower_short_circuit ctx ~is_and:true a b
  | EBinop (OrElse, a, b) -> lower_short_circuit ctx ~is_and:false a b
  | EBinop (op, a, b) -> (
      let va = lower_expr ctx a in
      let vb = lower_expr ctx b in
      match (ir_binop op, ir_cmpop op) with
      | Some bop, _ -> append ctx (T.Binop (bop, va, vb))
      | _, Some cop -> append ctx (T.Cmp (cop, va, vb))
      | None, None -> assert false)
  | EField (e, field) ->
      let v = lower_expr ctx e in
      append ctx (T.Load (v, field))
  | ENew (cls, args) ->
      let vargs = List.map (lower_expr ctx) args in
      append ctx (T.New (cls, Array.of_list vargs))
  | ECall (name, args) ->
      let vargs = List.map (lower_expr ctx) args in
      append ctx (T.Call (name, Array.of_list vargs))

and lower_short_circuit ctx ~is_and a b =
  (* a && b:  branch a ? eval_b : short;  merge with phi [vb, false]
     a || b:  branch a ? short : eval_b;  merge with phi [vb, true] *)
  let va = lower_expr ctx a in
  let eval_b = G.add_block ctx.g in
  let short = G.add_block ctx.g in
  let merge = G.add_block ctx.g in
  (if is_and then
     G.set_term ctx.g ctx.cur
       (T.Branch { cond = va; if_true = eval_b; if_false = short; prob = 0.5 })
   else
     G.set_term ctx.g ctx.cur
       (T.Branch { cond = va; if_true = short; if_false = eval_b; prob = 0.5 }));
  seal_block ctx eval_b;
  seal_block ctx short;
  ctx.cur <- eval_b;
  let vb = lower_expr ctx b in
  let b_end = ctx.cur in
  G.set_term ctx.g b_end (T.Jump merge);
  let short_const =
    G.append ctx.g short (T.Const (if is_and then 0 else 1))
  in
  G.set_term ctx.g short (T.Jump merge);
  seal_block ctx merge;
  ctx.cur <- merge;
  (* Predecessor order of [merge] is [b_end; short] (edges added in that
     order by the set_term calls above). *)
  let inputs =
    List.map
      (fun p ->
        if p = b_end then vb
        else if p = short then short_const
        else assert false)
      (G.preds ctx.g merge)
  in
  G.append ctx.g merge (T.Phi (Array.of_list inputs))

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let default_value ctx = function
  | TClass _ -> append ctx T.Null
  | TInt | TBool | TVoid -> append ctx (T.Const 0)

let rec lower_stmt ctx ~ret_type stmt =
  if ctx.terminated then () (* dead code after return: skip *)
  else
    match stmt with
    | SDecl (ty, name, init) ->
        let v =
          match init with
          | Some e -> lower_expr ctx e
          | None -> default_value ctx ty
        in
        write_var ctx ctx.cur (Hashtbl.find ctx.locals name) v
    | SAssign (LVar name, e) -> (
        let v = lower_expr ctx e in
        match Hashtbl.find_opt ctx.locals name with
        | Some local -> write_var ctx ctx.cur local v
        | None ->
            if is_global ctx name then
              ignore (append ctx (T.Store_global (name, v)))
            else err "unknown variable '%s'" name)
    | SAssign (LField (obj, field), e) ->
        let vo = lower_expr ctx obj in
        let v = lower_expr ctx e in
        ignore (append ctx (T.Store (vo, field, v)))
    | SExpr e -> ignore (lower_expr ctx e)
    | SBlock stmts -> List.iter (lower_stmt ctx ~ret_type) stmts
    | SReturn None ->
        G.set_term ctx.g ctx.cur (T.Return None);
        ctx.terminated <- true
    | SReturn (Some e) ->
        let v = lower_expr ctx e in
        G.set_term ctx.g ctx.cur (T.Return (Some v));
        ctx.terminated <- true
    | SIf { cond; prob; then_; else_ } -> (
        let vc = lower_expr ctx cond in
        let bt = G.add_block ctx.g in
        let bf = G.add_block ctx.g in
        let prob = Option.value ~default:0.5 prob in
        G.set_term ctx.g ctx.cur
          (T.Branch { cond = vc; if_true = bt; if_false = bf; prob });
        seal_block ctx bt;
        seal_block ctx bf;
        ctx.cur <- bt;
        ctx.terminated <- false;
        List.iter (lower_stmt ctx ~ret_type) then_;
        let t_end = ctx.cur and t_term = ctx.terminated in
        ctx.cur <- bf;
        ctx.terminated <- false;
        List.iter (lower_stmt ctx ~ret_type) else_;
        let f_end = ctx.cur and f_term = ctx.terminated in
        match (t_term, f_term) with
        | true, true -> ctx.terminated <- true
        | true, false ->
            ctx.cur <- f_end;
            ctx.terminated <- false
        | false, true ->
            ctx.cur <- t_end;
            ctx.terminated <- false
        | false, false ->
            let merge = G.add_block ctx.g in
            G.set_term ctx.g t_end (T.Jump merge);
            G.set_term ctx.g f_end (T.Jump merge);
            seal_block ctx merge;
            ctx.cur <- merge;
            ctx.terminated <- false)
    | SWhile { cond; prob; body } ->
        let header = G.add_block ctx.g in
        G.set_term ctx.g ctx.cur (T.Jump header);
        (* header is not sealed yet: the back edge is still missing. *)
        ctx.cur <- header;
        let vc = lower_expr ctx cond in
        let cond_end = ctx.cur in
        let body_b = G.add_block ctx.g in
        let exit_b = G.add_block ctx.g in
        let prob = Option.value ~default:0.9 prob in
        G.set_term ctx.g cond_end
          (T.Branch { cond = vc; if_true = body_b; if_false = exit_b; prob });
        seal_block ctx body_b;
        ctx.cur <- body_b;
        ctx.terminated <- false;
        List.iter (lower_stmt ctx ~ret_type) body;
        if not ctx.terminated then G.set_term ctx.g ctx.cur (T.Jump header);
        seal_block ctx header;
        (* Blocks between header and cond_end created by &&/|| in the
           condition were sealed when created. *)
        seal_block ctx exit_b;
        ctx.cur <- exit_b;
        ctx.terminated <- false

(* ------------------------------------------------------------------ *)
(* Function / program lowering                                         *)
(* ------------------------------------------------------------------ *)

let collect_locals f =
  let tbl = Hashtbl.create 16 in
  let names = ref [] in
  let add name =
    if not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name (Hashtbl.length tbl);
      names := name :: !names
    end
  in
  List.iter (fun (_, name) -> add name) f.fn_params;
  let rec scan_stmt = function
    | SDecl (_, name, _) -> add name
    | SIf { then_; else_; _ } ->
        List.iter scan_stmt then_;
        List.iter scan_stmt else_
    | SWhile { body; _ } -> List.iter scan_stmt body
    | SBlock stmts -> List.iter scan_stmt stmts
    | SAssign _ | SReturn _ | SExpr _ -> ()
  in
  List.iter scan_stmt f.fn_body;
  (tbl, Array.of_list (List.rev !names))

let lower_function prog f =
  let g = G.create ~name:f.fn_name ~n_params:(List.length f.fn_params) () in
  let entry = G.add_block g in
  G.set_entry g entry;
  let locals, local_names = collect_locals f in
  let ctx =
    {
      g;
      prog;
      locals;
      local_names;
      n_locals = max 1 (Array.length local_names);
      def_keys = Array.make 64 (-1);
      def_values = Array.make 64 0;
      def_bits = 6;
      def_count = 0;
      sealed = Array.make 16 false;
      incomplete = Array.make 16 [];
      resolved = Array.make 64 (-1);
      cur = entry;
      terminated = false;
    }
  in
  seal_block ctx entry;
  List.iteri
    (fun i (_, name) ->
      let p = G.append g entry (T.Param i) in
      write_var ctx entry (Hashtbl.find ctx.locals name) p)
    f.fn_params;
  List.iter (lower_stmt ctx ~ret_type:f.fn_ret) f.fn_body;
  (* Falling off the end: return the type's default. *)
  if not ctx.terminated then begin
    match f.fn_ret with
    | TVoid -> G.set_term ctx.g ctx.cur (T.Return None)
    | TClass _ ->
        let v = append ctx T.Null in
        G.set_term ctx.g ctx.cur (T.Return (Some v))
    | TInt | TBool ->
        let v = append ctx (T.Const 0) in
        G.set_term ctx.g ctx.cur (T.Return (Some v))
  end;
  g

(** Lower a type-checked program to an IR program. *)
let lower_program (p : Ast.program) =
  let main =
    match p.functions with
    | [] -> "main"
    | f :: _ ->
        if List.exists (fun f -> f.fn_name = "main") p.functions then "main"
        else f.fn_name
  in
  let prog = Ir.Program.create ~main () in
  List.iter
    (fun cd ->
      Ir.Program.add_class prog
        {
          Ir.Program.cls_name = cd.cd_name;
          fields = List.map snd cd.cd_fields;
        })
    p.classes;
  let prog =
    { prog with Ir.Program.globals = List.map (fun gd -> gd.gd_name) p.globals }
  in
  List.iter (fun f -> Ir.Program.add_function prog (lower_function p f)) p.functions;
  prog
