(** The shapes of the generated benchmark suite: progen programs of
    varied helper count and nesting depth, and giant-switch dispatch
    loops of 4 and 8 handlers. *)

type shape =
  | Progen of int * int  (** {!Progen.generate} with (helpers, depth) *)
  | Dispatch of int  (** {!Advgen.dispatch_src} with this many handlers *)

(** The eight shapes, in the suite's rotation order. *)
val shapes : shape list

(** ["progen-<helpers>-<depth>"] or ["dispatch-<handlers>"]. *)
val name : shape -> string

(** The mini-language source of one program of [shape]. *)
val source : shape -> seed:int -> string
