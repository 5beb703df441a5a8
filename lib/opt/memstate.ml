(** Abstract memory state for read elimination: which field/global reads
    are available, and what value a read would yield.  Shared between the
    {!Readelim} phase and the DBDS read-elimination applicability check
    (the simulation tier threads a memory state through the dominator
    traversal and into duplication simulation traversals). *)

open Ir.Types

module Key = struct
  type t = F of value * string | G of string

  (* The order of polymorphic [compare] (every [F] before every [G]),
     without its generic call: read elimination and the simulation's
     read check look keys up per memory access. *)
  let compare a b =
    match (a, b) with
    | F (v, f), F (w, h) ->
        let c = Int.compare v w in
        if c <> 0 then c else String.compare f h
    | G f, G h -> String.compare f h
    | F _, G _ -> -1
    | G _, F _ -> 1
end

module KMap = Map.Make (Key)

type t = value KMap.t

let empty : t = KMap.empty

let load st base field = KMap.find_opt (Key.F (base, field)) st
let load_global st name = KMap.find_opt (Key.G name) st

(** Record that [base.field] is known to hold [v] (after a load or a
    store). Stores first kill every entry of the same field name on other
    bases — two distinct bases of the same class may alias. *)
let store st base field v =
  let st =
    KMap.filter
      (fun key _ ->
        match key with Key.F (_, f) -> f <> field | Key.G _ -> true)
      st
  in
  KMap.add (Key.F (base, field)) v st

(** A load does not kill anything; it just records availability. *)
let record_load st base field v = KMap.add (Key.F (base, field)) v st

let store_global st name v =
  KMap.add (Key.G name) v (KMap.remove (Key.G name) st)

let record_global_load st name v = KMap.add (Key.G name) v st

(** Calls may read and write arbitrary memory. *)
let kill_all (_ : t) : t = empty

(** Record the effect of one instruction on the state, returning the new
    state and (if the instruction is a load that would be redundant) the
    available value.  [id] is the value the instruction defines. *)
let transfer st id kind =
  match kind with
  | Load (base, field) -> (
      match load st base field with
      | Some v -> (st, Some v)
      | None -> (record_load st base field id, None))
  | Store (base, field, v) -> (store st base field v, None)
  | Load_global name -> (
      match load_global st name with
      | Some v -> (st, Some v)
      | None -> (record_global_load st name id, None))
  | Store_global (name, v) -> (store_global st name v, None)
  | Call _ -> (kill_all st, None)
  | New (cls, args) ->
      (* A fresh allocation's fields are known: they hold the constructor
         arguments.  Field names are unknown here; the caller with class
         metadata may seed them via [seed_new]. *)
      ignore cls;
      ignore args;
      (st, None)
  | Const _ | Null | Param _ | Binop _ | Cmp _ | Neg _ | Not _ | Phi _ ->
      (st, None)

(** With class metadata: after [New (cls, args)] producing [id], each
    field holds the matching constructor argument. *)
let seed_new st ~fields id args =
  List.fold_left
    (fun (st, i) f ->
      if i < Array.length args then (record_load st id f args.(i), i + 1)
      else (st, i + 1))
    (st, 0) fields
  |> fst
