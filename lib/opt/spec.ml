(** Declarative pipeline specifications.

    A pipeline is described by a comma-separated string of items:

    {v
    spec  := item (',' item)*
    item  := 'fix' opts? '(' spec ')'     -- iterate body to a fixpoint
           | name opts?                   -- a single named pass
    opts  := '{' [key '=' value (',' key '=' value)*] '}'
    name, key, value := [A-Za-z0-9_.+-]+
    v}

    e.g. [inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds{iters=3}]
    — the default DBDS pipeline: inline, the classic optimizations to a
    fixpoint, then at most three rounds of the DBDS tier.

    This module is pure syntax: names are resolved against a registry by
    the pass manager ({!Manager}), so the grammar needs no knowledge of
    which passes exist.  {!to_string} prints the canonical form
    ([of_string] ∘ [to_string] is the identity on parsed specs, the CI
    round-trip check). *)

type item =
  | Pass of { name : string; opts : (string * string) list }
  | Fix of { opts : (string * string) list; body : item list }

type t = item list

(* ------------------------------------------------------------------ *)
(* Printing (canonical form: no whitespace, opts omitted when empty)   *)
(* ------------------------------------------------------------------ *)

let string_of_opts = function
  | [] -> ""
  | opts ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) opts)
      ^ "}"

let rec string_of_item = function
  | Pass { name; opts } -> name ^ string_of_opts opts
  | Fix { opts; body } ->
      "fix" ^ string_of_opts opts ^ "(" ^ to_string body ^ ")"

and to_string items = String.concat "," (List.map string_of_item items)

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; whitespace insignificant)               *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-' || c = '+'

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    && (let c = cur.src.[cur.pos] in
        c = ' ' || c = '\t' || c = '\n' || c = '\r')
  do
    cur.pos <- cur.pos + 1
  done

let peek cur =
  skip_ws cur;
  if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | Some c' -> error cur (Printf.sprintf "expected '%c', found '%c'" c c')
  | None -> error cur (Printf.sprintf "expected '%c', found end of spec" c)

let word cur =
  skip_ws cur;
  let start = cur.pos in
  while cur.pos < String.length cur.src && is_word_char cur.src.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then error cur "expected a name";
  String.sub cur.src start (cur.pos - start)

let opts cur =
  match peek cur with
  | Some '{' ->
      expect cur '{';
      let rec go acc =
        match peek cur with
        | Some '}' ->
            expect cur '}';
            List.rev acc
        | _ ->
            let k = word cur in
            expect cur '=';
            let v = word cur in
            let acc = (k, v) :: acc in
            if peek cur = Some ',' then begin
              expect cur ',';
              go acc
            end
            else begin
              expect cur '}';
              List.rev acc
            end
      in
      go []
  | _ -> []

let rec item cur =
  let name = word cur in
  let o = opts cur in
  if name = "fix" then begin
    expect cur '(';
    let body = items cur in
    expect cur ')';
    Fix { opts = o; body }
  end
  else Pass { name; opts = o }

and items cur =
  let first = item cur in
  let rec go acc =
    if peek cur = Some ',' then begin
      expect cur ',';
      go (item cur :: acc)
    end
    else List.rev acc
  in
  go [ first ]

let of_string s =
  let cur = { src = s; pos = 0 } in
  match items cur with
  | parsed ->
      skip_ws cur;
      if cur.pos <> String.length s then
        Error
          (Printf.sprintf "trailing garbage at offset %d in %S" cur.pos s)
      else Ok parsed
  | exception Parse_error msg -> Error (msg ^ " in " ^ Printf.sprintf "%S" s)

let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Option lookups (shared by resolvers)                                *)
(* ------------------------------------------------------------------ *)

(** Integer option [key], [default] when absent; [Error] when
    unparseable. *)
let int_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "option %s=%s is not an integer" key v))

(** Float option [key], [default] when absent. *)
let float_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> Ok default
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "option %s=%s is not a number" key v))

(** [Error] when [opts] contains a key outside [allowed]. *)
let check_opts ~pass allowed opts =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) opts with
  | Some (k, _) ->
      Error
        (Printf.sprintf "pass %s does not understand option %s (allowed: %s)"
           pass k
           (if allowed = [] then "none" else String.concat ", " allowed))
  | None -> Ok ()
