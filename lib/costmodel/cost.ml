(** The IR node cost model (paper §5.3).

    Each instruction kind carries a platform-agnostic estimate of its
    execution latency in abstract {e cycles} and its machine-code
    {e size} in abstract bytes — the OCaml analogue of Graal's
    [@NodeInfo(cycles = ..., size = ...)] annotations (the paper
    annotated over 400 node classes; our IR has far fewer kinds, so a
    single table suffices).  The published data points are preserved:
    division costs 32 cycles, a shift costs 1 (Figure 3d's strength
    reduction saves 31 cycles), an allocation costs 8
    ("tlab alloc + header init", Listing 7), and Figure 4's
    constant-folding example computes 14 → 12.2 cycles. *)

open Ir.Types

(** Revision of the cost tables below.  Optimization decisions (the
    simulation's benefits and the trade-off tier's size estimates) read
    these constants, so cached compilation artifacts are only reusable
    across processes agreeing on them: the service digest folds this
    number in, and any edit to the tables must bump it. *)
let revision = 1

type estimate = { cycles : float; size : int }

(** Costs of an instruction, by kind. *)
let of_kind = function
  | Const _ | Null -> { cycles = 0.0; size = 1 }
      (* usually folded into the consuming instruction *)
  | Param _ -> { cycles = 0.0; size = 0 }
  | Phi _ -> { cycles = 0.0; size = 0 }
      (* resolved to moves on the incoming edges; charged there via size *)
  | Binop ((Add | Sub | And | Or | Xor), _, _) -> { cycles = 1.0; size = 1 }
  | Binop ((Shl | Shr), _, _) -> { cycles = 1.0; size = 1 }
  | Binop (Mul, _, _) -> { cycles = 2.0; size = 1 }
  | Binop ((Div | Rem), _, _) -> { cycles = 32.0; size = 2 }
  | Cmp _ -> { cycles = 1.0; size = 1 }
  | Neg _ | Not _ -> { cycles = 1.0; size = 1 }
  | New (_, args) -> { cycles = 8.0; size = 8 + Array.length args }
  | Load _ -> { cycles = 3.0; size = 2 }
  | Store _ -> { cycles = 3.0; size = 2 }
  | Load_global _ -> { cycles = 3.0; size = 2 }
  | Store_global _ -> { cycles = 3.0; size = 2 }
  | Call (_, args) -> { cycles = 20.0; size = 4 + Array.length args }

(** Costs of a terminator. *)
let of_term = function
  | Jump _ -> { cycles = 1.0; size = 1 }
  | Branch _ -> { cycles = 1.0; size = 2 }
  | Return _ -> { cycles = 1.0; size = 1 }
  | Unreachable -> { cycles = 0.0; size = 0 }

let cycles_of_kind k = (of_kind k).cycles
let size_of_kind k = (of_kind k).size
