(** Static block execution-frequency estimation.

    The entry block has frequency 1.  Frequencies propagate along forward
    edges in reverse postorder, split by branch probabilities; each loop
    level multiplies its header's incoming frequency by [loop_factor]
    (10, approximating an average trip count, as JIT profiles would).  DBDS
    consumes the frequency of a block *relative to the maximum frequency
    in the compilation unit* (paper §5.3–5.4). *)

type t = {
  freq : float array;
  max_freq : float;
}

let loop_factor = 10.0

let edge_prob g p s =
  match Graph.term g p with
  | Types.Jump _ -> 1.0
  | Types.Branch { if_true; if_false; prob; _ } ->
      if if_true = s then prob else if if_false = s then 1.0 -. prob else 0.0
  | Types.Return _ | Types.Unreachable -> 0.0

let compute (dom : Dom.t) (loops : Loops.t) =
  let g = Dom.graph dom in
  let n = Graph.n_blocks g in
  let freq = Array.make (max 1 n) 0.0 in
  let is_back_edge p s = Dom.dominates dom s p in
  List.iter
    (fun b ->
      if b = Graph.entry g then
        freq.(b) <- 1.0
      else begin
        let incoming = ref 0.0 in
        Graph.iter_preds g b (fun p ->
            if Dom.is_reachable dom p && not (is_back_edge p b) then
              incoming := !incoming +. (freq.(p) *. edge_prob g p b));
        let incoming = !incoming in
        let f = if Loops.is_header loops b then incoming *. loop_factor else incoming in
        freq.(b) <- f
      end)
    (Dom.order dom);
  let max_freq = Array.fold_left max 1e-9 freq in
  { freq; max_freq }

let frequency t b = if b < Array.length t.freq then t.freq.(b) else 0.0

(** Frequency relative to the hottest block of the unit, in (0, 1]. *)
let relative t b = frequency t b /. t.max_freq

(** Equality of two frequency estimates over the same graph, within a
    small relative tolerance (frequencies are accumulated floats; two
    computations over an identical CFG agree exactly, but the tolerance
    keeps the preservation check robust to array-size differences for
    blocks allocated after the first computation). *)
let equal a b =
  let get arr i = if i < Array.length arr then arr.(i) else 0.0 in
  let close x y =
    Float.abs (x -. y)
    <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  in
  let n = max (Array.length a.freq) (Array.length b.freq) in
  let ok = ref (close a.max_freq b.max_freq) in
  for i = 0 to n - 1 do
    if not (close (get a.freq i) (get b.freq i)) then ok := false
  done;
  !ok
