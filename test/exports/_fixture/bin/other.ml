(* A value of its own named like one of the library's: naming the
   word alone does not use the library's. *)
let shared = 6
let () = print_int shared
