(** The scoped value-numbering table, shared by every dominator walk
    that numbers values: open addressing with linear probing over one
    int array, four cells a slot (tag, operand, operand, value; tag 0 is
    an empty slot), and an undo stack of the slots in insertion order.
    Keys are three ints, so a probe neither hashes nor compares
    instruction structure. *)

open Ir.Types

(* A key is [tag], [a], [b]: the op tag (from 1; an empty slot's is
   0) and two operands, ordered as [Gvn.key_of_kind] orders them. *)
type shape = { mutable a : int; mutable b : int }

let binop_tag = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let cmp_tag = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let operands s a b =
  s.a <- a;
  s.b <- b

(* Set [s] to [kind]'s operands and return its tag; 0 for a kind that
   is not a value-numbering candidate. *)
let shape s = function
  | Const n ->
      operands s n 0;
      1
  | Null ->
      operands s 0 0;
      2
  | Param i ->
      operands s i 0;
      3
  | Neg a ->
      operands s a 0;
      4
  | Not a ->
      operands s a 0;
      5
  | Binop (((Add | Mul | And | Or | Xor) as op), a, b) when b < a ->
      operands s b a;
      6 + binop_tag op
  | Binop (op, a, b) ->
      operands s a b;
      6 + binop_tag op
  | Cmp (op, a, b) when b < a ->
      operands s b a;
      16 + cmp_tag (swap_cmp op)
  | Cmp (op, a, b) ->
      operands s a b;
      16 + cmp_tag op
  | Phi _ | New _ | Load _ | Store _ | Load_global _ | Store_global _
  | Call _ ->
      0

type t = {
  mutable cells : int array;
  mutable mask : int;  (** slots - 1; slots is a power of two *)
  mutable undo : int array;  (** filled slots, oldest first *)
  mutable top : int;
  key : shape;  (** the operands of the key being looked up *)
}

let initial_slots = 64

let create () =
  {
    cells = Array.make (4 * initial_slots) 0;
    mask = initial_slots - 1;
    undo = Array.make (initial_slots / 2) 0;
    top = 0;
    key = { a = 0; b = 0 };
  }

let hash tag a b =
  let h = ((tag * 0x01000193) lxor a) * 0x5bd1e995 in
  let h = (h lxor b) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The slot holding the key, or [-(s + 1)] for the empty slot [s] that
   ends its probe chain. *)
let rec probe cells mask tag a b i =
  (* [i <= mask], and [cells] has [4 * (mask + 1)] cells. *)
  let c = i lsl 2 in
  let t = Array.unsafe_get cells c in
  if t = 0 then -i - 1
  else if
    t = tag
    && Array.unsafe_get cells (c + 1) = a
    && Array.unsafe_get cells (c + 2) = b
  then i
  else probe cells mask tag a b ((i + 1) land mask)

let slot t tag a b = probe t.cells t.mask tag a b (hash tag a b land t.mask)

let write cells s tag a b v =
  let c = s lsl 2 in
  cells.(c) <- tag;
  cells.(c + 1) <- a;
  cells.(c + 2) <- b;
  cells.(c + 3) <- v

(* Double the slots and replay the undo stack, oldest first, into the
   new array: the table is again what inserting the live entries in
   order builds, and the stack names their new slots. *)
let grow t =
  let old = t.cells in
  let slots = 2 * (t.mask + 1) in
  t.cells <- Array.make (4 * slots) 0;
  t.mask <- slots - 1;
  for i = 0 to t.top - 1 do
    let c = t.undo.(i) lsl 2 in
    let tag = old.(c) and a = old.(c + 1) and b = old.(c + 2) in
    let s = -slot t tag a b - 1 in
    write t.cells s tag a b old.(c + 3);
    t.undo.(i) <- s
  done

let find t kind =
  let tag = shape t.key kind in
  if tag = 0 then -1
  else
    let s = slot t tag t.key.a t.key.b in
    if s >= 0 then t.cells.((s lsl 2) + 3) else -1

let find_or_add t kind v =
  let tag = shape t.key kind in
  if tag = 0 then -1
  else
    let a = t.key.a and b = t.key.b in
    let s = slot t tag a b in
    if s >= 0 then t.cells.((s lsl 2) + 3)
    else begin
      let s = -s - 1 in
      write t.cells s tag a b v;
      if t.top = Array.length t.undo then begin
        let undo = Array.make (2 * t.top) 0 in
        Array.blit t.undo 0 undo 0 t.top;
        t.undo <- undo
      end;
      t.undo.(t.top) <- s;
      t.top <- t.top + 1;
      if 2 * t.top > t.mask + 1 then grow t;
      -1
    end

let mark t = t.top

(* Clearing the newest entry's slot restores the table to what it was
   before that insertion, which wrote nothing else. *)
let pop_to t m =
  while t.top > m do
    t.top <- t.top - 1;
    t.cells.(t.undo.(t.top) lsl 2) <- 0
  done

let length t = t.top

let same_key k =
  let s = { a = 0; b = 0 } and r = { a = 0; b = 0 } in
  let tag = shape s k in
  fun l -> tag > 0 && shape r l = tag && s.a = r.a && s.b = r.b

let key_operand = function
  | (Binop _ | Cmp _ | Neg _ | Not _) as k ->
      let s = { a = 0; b = 0 } in
      ignore (shape s k);
      s.a
  | _ -> -1
