(** Digits-only integer fields, shared by the wire protocol and the
    artifact store. *)

(** [Some n] when [s] is 1 to [max_digits] (default 18) decimal digits,
    [None] otherwise.  [int_of_string_opt] would also take ["0x10"],
    ["+3"], ["-0"], ["1_000"] and ["0b11"].  Eighteen digits fit a
    63-bit [int] without overflow. *)
val of_string : ?max_digits:int -> string -> int option
