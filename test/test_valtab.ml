(** {!Opt.Valtab} against its definition: a [Hashtbl] keyed by
    {!Opt.Gvn.key_of_kind}, with the same scopes.  Random operation
    sequences (lookups, insertions, nested scopes) over pure kinds with
    few operands, so commutative pairs, swapped comparisons and repeats
    are common, and long enough to grow the table mid-scope. *)

open Helpers
open Ir.Types

type op =
  | Lookup of instr_kind
  | Insert of instr_kind
  | Open  (** mark a scope *)
  | Close  (** pop to the innermost open scope's mark *)

let binops = [| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]
let cmpops = [| Eq; Ne; Lt; Le; Gt; Ge |]

let gen_kind =
  let open QCheck2.Gen in
  let v = int_range 0 7 in
  frequency
    [
      ( 2,
        map (fun n -> Const n) (oneofl [ 0; 1; -1; 7; -7; max_int; min_int ])
      );
      (1, return Null);
      (1, map (fun i -> Param i) (int_range 0 3));
      (1, map (fun a -> Neg a) v);
      (1, map (fun a -> Not a) v);
      (6, map3 (fun i a b -> Binop (binops.(i), a, b)) (int_bound 9) v v);
      (4, map3 (fun i a b -> Cmp (cmpops.(i), a, b)) (int_bound 5) v v);
      (1, map (fun a -> Phi [| a |]) v);
      (1, map (fun a -> Load (a, "f")) v);
    ]

(* Led by an [Open], so every growth happens with a scope open. *)
let gen_ops =
  let open QCheck2.Gen in
  map (fun ops -> Open :: ops) @@ list_size (int_range 0 400)
    (frequency
       [
         (6, map (fun k -> Insert k) gen_kind);
         (4, map (fun k -> Lookup k) gen_kind);
         (1, return Open);
         (1, return Close);
       ])

let print_op = function
  | Lookup k -> Format.asprintf "find %a" Ir.Printer.pp_kind k
  | Insert k -> Format.asprintf "add %a" Ir.Printer.pp_kind k
  | Open -> "open"
  | Close -> "close"

let print_ops ops = String.concat "; " (List.map print_op ops)

(* The definition: a [Hashtbl] on [key_of_kind], a scope a list of the
   keys it added. *)
type oracle = {
  table : (instr_kind, value) Hashtbl.t;
  mutable scopes : instr_kind list list;
}

let oracle_find o k =
  if not (Opt.Gvn.is_candidate k) then -1
  else
    Option.value ~default:(-1)
      (Hashtbl.find_opt o.table (Opt.Gvn.key_of_kind k))

let oracle_add o k v =
  let hit = oracle_find o k in
  if hit < 0 && Opt.Gvn.is_candidate k then begin
    let key = Opt.Gvn.key_of_kind k in
    Hashtbl.add o.table key v;
    match o.scopes with
    | s :: rest -> o.scopes <- (key :: s) :: rest
    | [] -> assert false
  end;
  hit

let oracle_close o =
  match o.scopes with
  | s :: (_ :: _ as rest) ->
      List.iter (Hashtbl.remove o.table) s;
      o.scopes <- rest
  | _ -> ()

(* Runs [ops] on both tables; every answer, and the entry count after
   every step, must agree.  A [Close] with no open scope is a no-op. *)
let agree ops =
  let t = Opt.Valtab.create () in
  let o = { table = Hashtbl.create 16; scopes = [ [] ] } in
  let marks = ref [] and next = ref 0 in
  List.for_all
    (fun op ->
      let same =
        match op with
        | Lookup k -> Opt.Valtab.find t k = oracle_find o k
        | Insert k ->
            incr next;
            Opt.Valtab.find_or_add t k !next = oracle_add o k !next
        | Open ->
            marks := Opt.Valtab.mark t :: !marks;
            o.scopes <- [] :: o.scopes;
            true
        | Close -> (
            match !marks with
            | m :: rest ->
                Opt.Valtab.pop_to t m;
                marks := rest;
                oracle_close o;
                true
            | [] -> true)
      in
      same && Opt.Valtab.length t = Hashtbl.length o.table)
    ops

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"valtab agrees with key_of_kind" ~count:300
       ~print:print_ops gen_ops agree)

(* [same_key] and [key_operand] are the definition's too. *)
let test_same_key =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"same_key is key_of_kind equality" ~count:2000
       QCheck2.Gen.(pair gen_kind gen_kind)
       (fun (k, l) ->
         let defined =
           Opt.Gvn.is_candidate k && Opt.Gvn.is_candidate l
           && Opt.Gvn.key_of_kind k = Opt.Gvn.key_of_kind l
         in
         let operand =
           match Opt.Gvn.key_of_kind k with
           | Binop (_, a, _) | Cmp (_, a, _) | Neg a | Not a -> a
           | _ -> -1
         in
         Opt.Valtab.same_key k l = defined
         && Opt.Valtab.key_operand k = operand))

(* Thousands of distinct keys in nested scopes: the table grows several
   times with scopes open, and each pop leaves exactly what its scope
   found. *)
let test_growth_mid_scope () =
  let t = Opt.Valtab.create () in
  let kind i = Binop (Add, i, -i) in
  let outer = Opt.Valtab.mark t in
  for i = 0 to 99 do
    ignore (Opt.Valtab.find_or_add t (kind i) i)
  done;
  let inner = Opt.Valtab.mark t in
  for i = 100 to 4999 do
    ignore (Opt.Valtab.find_or_add t (kind i) i)
  done;
  Alcotest.(check int) "entries" 5000 (Opt.Valtab.length t);
  Alcotest.(check int) "an outer entry, swapped" 42
    (Opt.Valtab.find t (Binop (Add, -42, 42)));
  Opt.Valtab.pop_to t inner;
  Alcotest.(check int) "inner entry gone" (-1) (Opt.Valtab.find t (kind 4000));
  Alcotest.(check int) "outer entry kept" 99 (Opt.Valtab.find t (kind 99));
  Alcotest.(check int) "re-add after pop" (-1)
    (Opt.Valtab.find_or_add t (kind 4000) 7);
  Opt.Valtab.pop_to t outer;
  Alcotest.(check int) "empty" 0 (Opt.Valtab.length t);
  Alcotest.(check int) "outer entry gone" (-1) (Opt.Valtab.find t (kind 99))

let suite =
  [
    test_differential;
    test_same_key;
    test "growth mid-scope" test_growth_mid_scope;
  ]
