(* Order statistics shared by every metric the benchmark reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan else a.(rank n q - 1)

let median xs = quantile_sorted (sorted xs) 0.5

(* The tail is reported at the highest of these levels that still has at
   least [min_beyond] samples strictly above its rank, so a single
   outlier never sets it. *)
let tail_levels = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]
let min_beyond = 10

type tail = { level : float; value : float; n : int; beyond : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond q = n - rank n q in
  let level =
    List.fold_left
      (fun best q -> if beyond q >= min_beyond then q else best)
      0.5 tail_levels
  in
  { level; value = quantile_sorted a level; n; beyond = beyond level }

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
