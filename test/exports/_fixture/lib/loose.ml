(* A module with no interface: the gate refuses it. *)
let loose = 6
