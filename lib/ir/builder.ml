(** Convenience layer for constructing graphs directly (tests, examples,
    and the paper's figure programs).  Keeps a current insertion block and
    offers one function per instruction kind. *)

open Types

type t = { graph : Graph.t; mutable cur : block_id }

let create ?(name = "fn") ~n_params () =
  let graph = Graph.create ~name ~n_params () in
  let entry = Graph.add_block graph in
  { graph; cur = entry }

let graph b = b.graph
let current b = b.cur
let entry b = Graph.entry b.graph

(** Create a fresh (empty, unconnected) block. *)
let new_block b = Graph.add_block b.graph

(** Move the insertion point. *)
let switch b bid = b.cur <- bid

let add b kind = Graph.append b.graph b.cur kind
let const b n = add b (Const n)
let null b = add b Null
let param b i = add b (Param i)
let binop b op x y = add b (Binop (op, x, y))
let cmp b op x y = add b (Cmp (op, x, y))
let neg b x = add b (Neg x)
let load b o f = add b (Load (o, f))
let store b o f v = add b (Store (o, f, v))
let gload b gl = add b (Load_global gl)
let gstore b gl v = add b (Store_global (gl, v))
let call b fn args = add b (Call (fn, Array.of_list args))

(** Add a phi to a block.  The block must already have all its
    predecessors; inputs align with the predecessor order. *)
let phi b bid inputs =
  let n = List.length (Graph.preds b.graph bid) in
  if List.length inputs <> n then
    invalid_arg
      (Printf.sprintf "Builder.phi: %d inputs for %d predecessors"
         (List.length inputs) n);
  Graph.append b.graph bid (Phi (Array.of_list inputs))

let jump b target = Graph.set_term b.graph b.cur (Jump target)

let branch ?(prob = 0.5) b cond ~if_true ~if_false =
  Graph.set_term b.graph b.cur (Branch { cond; if_true; if_false; prob })

let ret b v = Graph.set_term b.graph b.cur (Return (Some v))

(** Finish: verify and return the graph. *)
let finish b =
  Verifier.verify b.graph;
  b.graph
