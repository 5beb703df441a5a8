type shape = Progen of int * int | Dispatch of int

let shapes =
  [ Progen (1, 2); Progen (2, 3); Dispatch 4; Progen (3, 3);
    Progen (4, 4); Dispatch 8; Progen (2, 4); Progen (3, 2) ]

let name = function
  | Progen (n_helpers, depth) -> Printf.sprintf "progen-%d-%d" n_helpers depth
  | Dispatch handlers -> Printf.sprintf "dispatch-%d" handlers

let source shape ~seed =
  match shape with
  | Progen (n_helpers, depth) -> Progen.generate ~n_helpers ~depth ~seed ()
  | Dispatch handlers -> Advgen.dispatch_src ~handlers ~seed
