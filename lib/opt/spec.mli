(** Declarative pipeline specifications — the string form accepted by
    [dbdsc --passes]:

    {v
    spec  := item (',' item)*
    item  := 'fix' opts? '(' spec ')'     -- iterate body to a fixpoint
           | name opts?                   -- a single named pass
    opts  := '{' [key '=' value (',' key '=' value)*] '}'
    v}

    e.g. [inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds].

    Every pass name and option is declared once, in {!schema}.  A
    parsed spec only becomes a {!t} through {!check}, which refuses
    what the schema does not declare and fills in every default, so a
    {!t} cannot fail to resolve and equal pipelines print one
    {!to_string}.  The pass manager ({!Manager}) maps the names to
    passes. *)

(** A checked option value: an [iters]-like count or a finite
    [threshold]. *)
type value = Int of int | Float of float

type 'v item =
  | Pass of { name : string; opts : (string * 'v) list }
  | Fix of { opts : (string * 'v) list; body : 'v item list }

(** A checked spec: long names replaced by their short form (aliases),
    and each item's options typed, in key order, every declared option
    present. *)
type t = private value item list

(** {2 Schema} *)

(** One declared option: it takes values of [min]'s kind no smaller
    than [min], and [default] when absent. *)
type decl = { key : string; min : value; default : value; doc : string }

(** Every pass name a spec may use, in groups that share one option
    list.  [inline] is program-level: top level only. *)
val schema : (string list * decl list) list

(** The options of a [fix] group. *)
val fix_options : decl list

(** Long names accepted in place of a short one: [(long, short)]. *)
val aliases : (string * string) list

(** "an integer >= 1", "a finite number >= 0": what [decl] accepts. *)
val range : decl -> string

(** A value as {!to_string} prints it. *)
val string_of_value : value -> string

(** {2 Checking and printing} *)

(** Resolve a spec against {!schema}.  [Error] names the offence — an
    unknown pass, an unknown or repeated key, or a value that does not
    parse or lies out of range (naming the pass, the key and the
    range) — or a nested [inline]. *)
val check : string item list -> (t, string) result

(** Parse, then {!check}. *)
val of_string : string -> (t, string) result

(** The one rendering: no whitespace, floats in their shortest
    round-tripping form, every option written out — so a later change
    to a default changes the rendering, and the request digest with it.
    [of_string] ∘ [to_string] is the identity. *)
val to_string : t -> string

(** The value of a checked int / float option.
    @raise Not_found when the item declares no [key]. *)
val int : (string * value) list -> string -> int

val float : (string * value) list -> string -> float
