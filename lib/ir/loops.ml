(** Loop headers.  A back edge is an edge [t -> h] where [h] dominates
    [t]; its target is a natural-loop header.  The block-frequency
    estimator scales a header's incoming frequency, and the simulation
    stops its paths at headers: both only ask whether a block is one. *)

type t = { header : bool array }

let is_header t b = b < Array.length t.header && t.header.(b)

let compute (dom : Dom.t) =
  let g = Dom.graph dom in
  let header = Array.make (max 1 (Graph.n_blocks g)) false in
  let back b s = if Dom.dominates dom s b then header.(s) <- true in
  List.iter
    (fun b ->
      match Graph.term g b with
      | Types.Jump s -> back b s
      | Types.Branch { if_true; if_false; _ } ->
          back b if_true;
          back b if_false
      | Types.Return _ | Types.Unreachable -> ())
    (Dom.order dom);
  { header }

(** Equality of two header sets over the same graph (arrays sized for
    different arena marks agree on the blocks one of them lacks). *)
let equal a b =
  let n = max (Array.length a.header) (Array.length b.header) in
  let rec go i = i >= n || (is_header a i = is_header b i && go (i + 1)) in
  go 0
