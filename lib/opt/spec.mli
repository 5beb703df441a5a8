(** Declarative pipeline specifications — the string form accepted by
    [dbdsc --passes]:

    {v
    spec  := item (',' item)*
    item  := 'fix' opts? '(' spec ')'     -- iterate body to a fixpoint
           | name opts?                   -- a single named pass
    opts  := '{' [key '=' value (',' key '=' value)*] '}'
    v}

    e.g. [inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds{iters=3}].

    Pure syntax: names are resolved by the pass manager ({!Manager}).
    {!to_string} prints the canonical form; [of_string] ∘ [to_string]
    is the identity on parsed specs. *)

type item =
  | Pass of { name : string; opts : (string * string) list }
  | Fix of { opts : (string * string) list; body : item list }

type t = item list

(** Canonical rendering: no whitespace, opts omitted when empty. *)
val to_string : t -> string

val of_string : string -> (t, string) result
val equal : t -> t -> bool

(** {2 Option lookups (shared by pass resolvers)} *)

(** Integer option [key], [default] when absent; [Error] when
    unparseable. *)
val int_opt :
  (string * string) list -> string -> default:int -> (int, string) result

(** Float option [key], [default] when absent. *)
val float_opt :
  (string * string) list -> string -> default:float -> (float, string) result

(** [Error] when [opts] contains a key outside [allowed]. *)
val check_opts :
  pass:string -> string list -> (string * string) list -> (unit, string) result
