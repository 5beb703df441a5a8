(** Digits-only integer fields, shared by the wire protocol and the
    artifact store. *)

let of_string ?(max_digits = 18) s =
  let n = String.length s in
  if
    n > 0 && n <= max_digits
    && String.for_all (fun c -> c >= '0' && c <= '9') s
  then Some (int_of_string s)
  else None
