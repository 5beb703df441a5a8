(** Branch profiling: the stand-in for the interpreter profiles the
    paper's branch probabilities come from (HotSpot's, §5.3).

    Run a program under {!Machine.run} with a profile attached, then
    {!apply} the observed frequencies back onto the IR's [Branch]
    probabilities before compiling ([dbdsc --profile-runs],
    {!Machine.profile_guided}). *)

type t

val create : unit -> t

(** Record one execution of the branch terminating [bid] in function
    [fn]. *)
val record : t -> fn:string -> bid:Ir.Types.block_id -> taken_true:bool -> unit

(** Observed probability of the true edge, if the branch executed at
    least 8 times. *)
val observed : t -> fn:string -> bid:Ir.Types.block_id -> float option

(** Total branch executions recorded. *)
val samples : t -> int

(** Fold over all recorded branches in deterministic (sorted-key)
    order. *)
val fold :
  t ->
  init:'a ->
  f:('a -> fn:string -> bid:Ir.Types.block_id -> taken:int -> total:int -> 'a) ->
  'a

(** Rewrite every profiled [Branch] probability in the program from the
    recorded counts.  Unreached branches keep their static estimate;
    probabilities are clamped to [[0.0001, 0.9999]] so cold paths keep
    a nonzero frequency, as HotSpot does. *)
val apply : t -> Ir.Program.t -> unit
