(** Declarative pipeline specifications: the grammar (see spec.mli),
    the schema that declares every pass name and option once, and the
    check that turns a parsed spec into the one canonical, typed form
    the rest of the compiler sees. *)

type value = Int of int | Float of float

type 'v item =
  | Pass of { name : string; opts : (string * 'v) list }
  | Fix of { opts : (string * 'v) list; body : 'v item list }

type t = value item list

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

type decl = { key : string; min : value; default : value; doc : string }

let decl key min default doc = { key; min; default; doc }

(* Paper §5.2: at most three applications of a tier, and another round
   only if the last one's accepted benefit exceeds 20 (~20% of units
   re-iterate).  The driver also starts one when an accepted candidate
   went stale before its duplication.  Each option list is in key
   order, the order a checked spec prints. *)
let iters = decl "iters" (Int 1) (Int 3) "the most rounds the tier runs (§5.2)"

let schema =
  [
    ( [ "canon"; "simplify"; "sccp"; "gvn"; "condelim"; "readelim"; "pea";
        "dce"; "inline" ],
      [] );
    ( [ "dbds"; "dupalot" ],
      [
        iters;
        decl "paths" (Int 1) (Int 1)
          "the most merges one candidate may span (§8; 1 is none)";
        decl "threshold" (Float 0.) (Float 20.)
          "another round starts only if this one's benefit exceeds it or \
           a candidate it accepted went stale";
      ] );
    ([ "backtracking"; "condelim_dup" ], [ iters ]);
  ]

let fix_options =
  [ decl "rounds" (Int 1) (Int 8) "the most rounds before it stops unsettled" ]

let aliases = [ ("canonicalize", "canon"); ("simplify-cfg", "simplify") ]

(* ------------------------------------------------------------------ *)
(* Checking and printing                                               *)
(* ------------------------------------------------------------------ *)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun msg -> raise (Refused msg)) fmt

let string_of_value = function
  | Int n -> string_of_int n
  | Float f ->
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let range d =
  match d.min with
  | Int _ -> "an integer >= " ^ string_of_value d.min
  | Float _ -> "a finite number >= " ^ string_of_value d.min

(* [+. 0.] folds -0 into 0, so the two print alike. *)
let read d v =
  match (d.min, int_of_string_opt v, float_of_string_opt v) with
  | Int lo, Some n, _ when n >= lo -> Some (Int n)
  | Float lo, _, Some f when Float.is_finite f && f >= lo ->
      Some (Float (f +. 0.))
  | _ -> None

let check_opts pass decls opts =
  let add given (k, v) =
    match List.find_opt (fun d -> d.key = k) decls with
    | None ->
        refuse "pass %s: unknown option %s (options: %s)" pass k
          (if decls = [] then "none"
           else String.concat ", " (List.map (fun d -> d.key) decls))
    | Some d when List.mem_assoc k given ->
        refuse "pass %s: option %s given twice (%s takes %s)" pass k k (range d)
    | Some d -> (
        match read d v with
        | Some x -> (k, x) :: given
        | None -> refuse "pass %s: %s=%s is not %s" pass k v (range d))
  in
  let given = List.fold_left add [] opts in
  let value d = Option.value (List.assoc_opt d.key given) ~default:d.default in
  List.map (fun d -> (d.key, value d)) decls

let rec check_item ~top = function
  | Pass { name; opts } ->
      let name = Option.value (List.assoc_opt name aliases) ~default:name in
      let decls =
        match List.find_opt (fun (names, _) -> List.mem name names) schema with
        | Some (_, decls) -> decls
        | None -> refuse "unknown pass %S" name
      in
      if name = "inline" && not top then
        refuse
          "inline is program-level: it may only appear at the top level of \
           the pipeline (the driver runs it before fanning functions out)";
      Pass { name; opts = check_opts name decls opts }
  | Fix { opts; body } ->
      Fix
        {
          opts = check_opts "fix" fix_options opts;
          body = List.map (check_item ~top:false) body;
        }

let check spec =
  match List.map (check_item ~top:true) spec with
  | checked -> Ok checked
  | exception Refused msg -> Error msg

let rec to_string items =
  let opts = function
    | [] -> ""
    | opts ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> k ^ "=" ^ string_of_value v) opts)
        ^ "}"
  in
  let item = function
    | Pass { name; opts = o } -> name ^ opts o
    | Fix { opts = o; body } -> "fix" ^ opts o ^ "(" ^ to_string body ^ ")"
  in
  String.concat "," (List.map item items)

let int opts key =
  match List.assoc key opts with Int n -> n | Float _ -> raise Not_found

let float opts key =
  match List.assoc key opts with Float f -> f | Int _ -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; whitespace insignificant)               *)
(* ------------------------------------------------------------------ *)

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-' || c = '+'

type cursor = { src : string; mutable pos : int }

let error cur fmt = refuse ("at offset %d: " ^^ fmt) cur.pos

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
  | Some c' -> error cur "expected '%c', found '%c'" c c'
  | None -> error cur "expected '%c', found end of spec" c

let word cur =
  skip_ws cur;
  let start = cur.pos in
  while cur.pos < String.length cur.src && is_word_char cur.src.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then error cur "expected a name";
  String.sub cur.src start (cur.pos - start)

(* [x (',' x)*] *)
let rec list cur x =
  let first = x cur in
  if peek cur = Some ',' then begin
    expect cur ',';
    first :: list cur x
  end
  else [ first ]

let opts cur =
  if peek cur <> Some '{' then []
  else begin
    expect cur '{';
    let opts =
      if peek cur = Some '}' then []
      else
        list cur (fun cur ->
            let k = word cur in
            expect cur '=';
            (k, word cur))
    in
    expect cur '}';
    opts
  end

let rec item cur =
  let name = word cur in
  let opts = opts cur in
  if name <> "fix" then Pass { name; opts }
  else begin
    expect cur '(';
    let body = list cur item in
    expect cur ')';
    Fix { opts; body }
  end

let of_string s =
  let cur = { src = s; pos = 0 } in
  match list cur item with
  | parsed ->
      skip_ws cur;
      if cur.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d in %S" cur.pos s)
      else check parsed
  | exception Refused msg -> Error (Printf.sprintf "%s in %S" msg s)
