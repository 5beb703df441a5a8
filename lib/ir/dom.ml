(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm,
    plus O(1) dominance queries (preorder intervals of the tree), tree
    children and dominance frontiers (the latter feed SSA repair after
    duplication). *)

type t = {
  graph : Graph.t;
  idom : int array;  (** immediate dominator per block; entry maps to itself;
                         -1 for unreachable blocks *)
  order : Types.block_id list;  (** reverse postorder *)
  children : Types.block_id list array;  (** dominator-tree children *)
  enter : int array;
      (** preorder number on entering the block's subtree; -1 unreachable *)
  leave : int array;  (** preorder number after leaving its subtree *)
}

let graph t = t.graph
let order t = t.order

let compute (g : Graph.t) =
  let n = Graph.n_blocks g in
  let order = Graph.rpo g in
  let rpo = Array.of_list order in
  let rpo_index = Array.make (max 1 n) (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make (max 1 n) (-1) in
  let entry = Graph.entry g in
  idom.(entry) <- entry;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_index.(!f1) > rpo_index.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_index.(!f2) > rpo_index.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to Array.length rpo - 1 do
      let b = rpo.(i) in
      (* Only processed (hence reachable) predecessors take part:
         idom.(p) >= 0 subsumes a reachability filter since idoms are
         only ever assigned along the reverse postorder. *)
      let new_idom = ref (-1) in
      for k = 0 to Graph.pred_count g b - 1 do
        let p = Graph.pred_nth g b k in
        if idom.(p) >= 0 then
          new_idom := if !new_idom < 0 then p else intersect !new_idom p
      done;
      if !new_idom >= 0 && idom.(b) <> !new_idom then begin
        idom.(b) <- !new_idom;
        changed := true
      end
    done
  done;
  let children = Array.make (max 1 n) [] in
  (* Children in reverse postorder: iterate the order backwards so the
     consed lists come out forwards. *)
  for i = Array.length rpo - 1 downto 1 do
    let b = rpo.(i) in
    children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  (* Preorder numbers: [a] dominates [b] when [b]'s interval nests in
     [a]'s. *)
  let enter = Array.make (max 1 n) (-1) and leave = Array.make (max 1 n) (-1) in
  let clock = ref 0 in
  let rec number b =
    enter.(b) <- !clock;
    incr clock;
    List.iter number children.(b);
    leave.(b) <- !clock
  in
  if Array.length rpo > 0 then number entry;
  { graph = g; idom; order; children; enter; leave }

let idom t b = if b = Graph.entry t.graph then None else Some t.idom.(b)
let children t b = t.children.(b)

let is_reachable t b =
  b >= 0 && b < Array.length t.enter && t.enter.(b) >= 0

(** [dominates t a b]: does [a] dominate [b] (reflexively)?  Two
    comparisons of preorder numbers. *)
let dominates t a b =
  is_reachable t a && is_reachable t b
  && t.enter.(a) <= t.enter.(b)
  && t.leave.(b) <= t.leave.(a)

let strictly_dominates t a b = a <> b && dominates t a b

(** Preorder traversal of the dominator tree with entry/exit callbacks —
    the skeleton of both the DBDS simulation tier and the dominator-scoped
    optimizations. *)
let walk t ~enter ~exit =
  let rec go b =
    enter b;
    List.iter go t.children.(b);
    exit b
  in
  if is_reachable t (Graph.entry t.graph) then go (Graph.entry t.graph)

(** Blocks in dominator-tree preorder. *)
let preorder t =
  let acc = ref [] in
  walk t ~enter:(fun b -> acc := b :: !acc) ~exit:(fun _ -> ());
  List.rev !acc

(** Dominance frontiers (Cooper–Harvey–Kennedy's simple algorithm).
    Membership dedup uses a stamp array keyed on the join block — each
    join is processed exactly once, so a matching stamp means "already in
    this runner's frontier" without the old O(|df|) list scan. *)
let frontiers t =
  let g = t.graph in
  let n = max 1 (Graph.n_blocks g) in
  let df = Array.make n [] in
  let stamp = Array.make n (-1) in
  List.iter
    (fun b ->
      let live_preds = ref 0 in
      Graph.iter_preds g b (fun p ->
          if is_reachable t p then incr live_preds);
      if !live_preds >= 2 then
        Graph.iter_preds g b (fun p ->
            if is_reachable t p then begin
              let runner = ref p in
              while !runner <> t.idom.(b) do
                if stamp.(!runner) <> b then begin
                  stamp.(!runner) <- b;
                  df.(!runner) <- b :: df.(!runner)
                end;
                runner := t.idom.(!runner)
              done
            end))
    t.order;
  df

(** Iterated dominance frontier of a set of blocks — the phi-placement set
    for SSA construction/repair. *)
let iterated_frontier t ~frontiers:df blocks =
  let in_result = Hashtbl.create 16 in
  let worklist = Queue.create () in
  List.iter (fun b -> Queue.add b worklist) blocks;
  let result = ref [] in
  while not (Queue.is_empty worklist) do
    let b = Queue.pop worklist in
    if is_reachable t b then
      List.iter
        (fun d ->
          if not (Hashtbl.mem in_result d) then begin
            Hashtbl.add in_result d ();
            result := d :: !result;
            Queue.add d worklist
          end)
        df.(b)
  done;
  !result

(** Structural equality of two dominator trees over the same graph: the
    same reverse postorder and the same immediate dominator for every
    reachable block.  Children, intervals and frontiers are all derived
    from the idoms, so comparing idoms suffices — this is the
    preservation-contract check of {!Analyses}. *)
let equal a b =
  a.order = b.order
  && List.for_all (fun blk -> a.idom.(blk) = b.idom.(blk)) a.order
