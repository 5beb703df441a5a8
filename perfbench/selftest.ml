(* Self-tests of the tail percentile every timing depends on: the highest
   level with at least ten samples beyond it.  They run before every
   measurement and on their own with [--selftest]. *)

let cases () =
  let floats n = List.init n (fun i -> float_of_int (i + 1)) in
  let level n = (Stats.tail (floats n)).level in
  [
    ("tail of 19 samples falls back to the median", level 19 = 0.5);
    ("tail of 99 samples is p50 (p90 has 9 beyond)", level 99 = 0.5);
    ("tail of 100 samples is p90 (10 beyond)", level 100 = 0.9);
    ("tail of 999 samples is p90", level 999 = 0.9);
    ("tail of 1000 samples is p99", level 1000 = 0.99);
    ("tail of 10000 samples is p99.9", level 10000 = 0.999);
    ("tail value of 1..1000 is 990", (Stats.tail (floats 1000)).value = 990.0);
    ("tail counts its samples beyond", (Stats.tail (floats 1000)).beyond = 10);
    ("tail ignores input order", (Stats.tail (List.rev (floats 1000))).value = 990.0);
    ("median of an even count is the lower middle", Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.0);
  ]

let run () =
  let failed = List.filter (fun (_, ok) -> not ok) (cases ()) in
  List.iter (fun (name, _) -> Printf.eprintf "selftest FAILED: %s\n" name) failed;
  failed = []
