(** Parser for the textual IR format produced by {!Printer} — the
    round-trip partner of [graph_to_string].  Lets tests and tools author
    IR fixtures directly and guards the printer against ambiguity (see
    the round-trip property in the test suite).

    One cursor walks the text line by line; nothing is copied except the
    names the graph keeps (function, class, field, global) and a branch
    probability's digits.

    Reconstruction order matters: blocks are created first, then
    placeholder instructions (so every value id exists), then terminators
    (establishing predecessor lists), then the real instruction kinds —
    and finally phi inputs are permuted from the textual predecessor
    order (recorded in the "; preds:" comments) to the reconstructed
    one. *)

open Types

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* The cursor: one line of the text at a time                          *)
(* ------------------------------------------------------------------ *)

(* [pos] advances through the current line, [start, lim) with its
   surrounding blanks trimmed. *)
type cursor = { text : string; mutable start : int; mutable pos : int; mutable lim : int }

let is_blank c = c = ' ' || c = '\t' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

let is_word c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_' || c = '.'

let current_line c = String.sub c.text c.start (c.lim - c.start)
let error c what = fail "expected %s in %S" what (current_line c)

let skip_blanks c =
  while c.pos < c.lim && is_blank (String.unsafe_get c.text c.pos) do
    c.pos <- c.pos + 1
  done

let peek c = if c.pos < c.lim then String.unsafe_get c.text c.pos else '\000'

let at_end c =
  skip_blanks c;
  c.pos >= c.lim

let expect_end c = if not (at_end c) then error c "end of line"

(* [text] holds [s] at [at], from its [i]th character on.  A top-level
   loop, not a closure: the matchers below run several times a line. *)
let rec holds text at s i =
  i = String.length s
  || (String.unsafe_get text (at + i) = String.unsafe_get s i && holds text at s (i + 1))

let looking_at c s = c.pos + String.length s <= c.lim && holds c.text c.pos s 0

let expect c s =
  skip_blanks c;
  if looking_at c s then c.pos <- c.pos + String.length s else error c (Printf.sprintf "%S" s)

(* Advance to the first occurrence of [s] on the rest of this line, or
   to its end. *)
let rec seek c s =
  if c.pos < c.lim && not (looking_at c s) then (
    c.pos <- c.pos + 1;
    seek c s)

(* A decimal integer, optionally negative ([signed]).  Up to 18 digits
   cannot overflow and are accumulated in place; longer ones go through
   [int_of_string_opt], which rejects an overflow. *)
let integer ?(signed = false) c what =
  let first = c.pos in
  if signed && peek c = '-' then c.pos <- c.pos + 1;
  let d0 = c.pos in
  let n = ref 0 in
  while c.pos < c.lim && is_digit (String.unsafe_get c.text c.pos) do
    n := (!n * 10) - (Char.code (String.unsafe_get c.text c.pos) - Char.code '0');
    c.pos <- c.pos + 1
  done;
  if c.pos = d0 then error c what
  else if c.pos - d0 > 18 then
    match int_of_string_opt (String.sub c.text first (c.pos - first)) with
    | Some n -> n
    | None -> error c what
  else if d0 > first then !n
  else - !n

let signed c what =
  skip_blanks c;
  integer ~signed:true c what

(* "vN" / "bN": the letter, then the id's digits. *)
let id letter what c =
  skip_blanks c;
  if peek c <> letter then error c what;
  c.pos <- c.pos + 1;
  integer c what

let value = id 'v' "a value"
let block = id 'b' "a block"

(* A name the graph keeps: everything up to [stop] (['\n']: the end of
   the line), blanks trimmed. *)
let name_until c stop =
  skip_blanks c;
  let first = c.pos in
  while c.pos < c.lim && String.unsafe_get c.text c.pos <> stop do
    c.pos <- c.pos + 1
  done;
  let last = ref c.pos in
  while !last > first && is_blank c.text.[!last - 1] do decr last done;
  String.sub c.text first (!last - first)

(* Comma-separated values up to [close] (consumed). *)
let values c close =
  skip_blanks c;
  if peek c = close then (
    c.pos <- c.pos + 1;
    [||])
  else begin
    let rec go acc =
      let acc = value c :: acc in
      skip_blanks c;
      match peek c with
      | ',' ->
          c.pos <- c.pos + 1;
          go acc
      | ch when ch = close ->
          c.pos <- c.pos + 1;
          acc
      | _ -> error c (Printf.sprintf "',' or '%c'" close)
    in
    Array.of_list (List.rev (go []))
  end

(* The word at the cursor (letters, digits, '_' and '.'), consumed;
   [word_is] compares it without copying it. *)
let word c =
  skip_blanks c;
  let first = c.pos in
  while c.pos < c.lim && is_word (String.unsafe_get c.text c.pos) do
    c.pos <- c.pos + 1
  done;
  first

let prefix_is c first s = first + String.length s <= c.pos && holds c.text first s 0
let word_is c first s = c.pos - first = String.length s && holds c.text first s 0

(* ------------------------------------------------------------------ *)
(* Kind / terminator parsing over textual value ids                    *)
(* ------------------------------------------------------------------ *)

let binops = [| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]
let cmpops = [| Eq; Ne; Lt; Le; Gt; Ge |]

(* One instruction right-hand side, over {e textual} value ids (remapped
   by the caller). *)
let kind c =
  let w = word c in
  let is = word_is c w in
  let k =
    if is "const" then Const (signed c "a constant")
    else if is "param" then Param (signed c "a parameter index")
    else if is "null" then Null
    else if is "neg" then Neg (value c)
    else if is "not" then Not (value c)
    else if is "phi" then (
      expect c "[";
      Phi (values c ']'))
    else if is "new" then
      let cls = name_until c '(' in
      expect c "(";
      New (cls, values c ')')
    else if is "call" then
      let fn = name_until c '(' in
      expect c "(";
      Call (fn, values c ')')
    else if is "load" then (
      let o = value c in
      expect c ".";
      Load (o, name_until c '\n'))
    else if is "store" then (
      let o = value c in
      expect c ".";
      let f = name_until c '<' in
      expect c "<-";
      Store (o, f, value c))
    else if is "gload" then Load_global (name_until c '\n')
    else if is "gstore" then (
      let gl = name_until c '<' in
      expect c "<-";
      Store_global (gl, value c))
    else
      let operands op =
        let x = value c in
        expect c ",";
        op x (value c)
      in
      match Array.find_opt (fun op -> is (binop_to_string op)) binops with
      | Some op -> operands (fun x y -> Binop (op, x, y))
      | None -> (
          let cmp op = prefix_is c w "cmp." && word_is c (w + 4) (cmpop_to_string op) in
          match Array.find_opt cmp cmpops with
          | Some op -> operands (fun x y -> Cmp (op, x, y))
          | None -> fail "cannot parse instruction %S" (current_line c))
  in
  expect_end c;
  k

(* A terminator line, over textual value/block ids. *)
let term c =
  let w = word c in
  let is = word_is c w in
  let t =
    if is "jump" then Jump (block c)
    else if is "return" then if at_end c then Return None else Return (Some (value c))
    else if is "unreachable" then Unreachable
    else if is "branch" then (
      (* "branch v3 ? b1 : b2  @0.50" *)
      let cond = value c in
      expect c "?";
      let if_true = block c in
      expect c ":";
      let if_false = block c in
      let prob =
        if at_end c then 0.5
        else (
          expect c "@";
          skip_blanks c;
          let digits = String.sub c.text c.pos (c.lim - c.pos) in
          c.pos <- c.lim;
          match float_of_string_opt digits with
          | Some p -> p
          | None -> error c "a branch probability")
      in
      Branch { cond; if_true; if_false; prob })
    else fail "cannot parse terminator %S" (current_line c)
  in
  expect_end c;
  t

(* ------------------------------------------------------------------ *)
(* Whole-graph parsing                                                 *)
(* ------------------------------------------------------------------ *)

type parsed_block = {
  pb_id : int;  (** textual id *)
  pb_preds : int list;  (** textual ids from the "; preds:" comment *)
  mutable pb_instrs : (int * instr_kind) list;
      (** textual vid, kind over textual ids (reversed) *)
  mutable pb_term : terminator option;
}

(* "fn name(N params) entry=bK" *)
let header c =
  expect c "fn ";
  let name = name_until c '(' in
  expect c "(";
  let n_params = signed c "a parameter count" in
  expect c "params";
  expect c ")";
  expect c "entry=";
  let entry = block c in
  expect_end c;
  (name, n_params, entry)

(* A block header, "bK:" or "bK:  ; preds: b1, b2": 'b', digits, ':'. *)
let rec digits_then_colon c i =
  i < c.lim
  &&
  match String.unsafe_get c.text i with
  | ':' -> i > c.pos + 1
  | ch -> is_digit ch && digits_then_colon c (i + 1)

let is_block_header c = peek c = 'b' && digits_then_colon c (c.pos + 1)

let block_header c =
  let bid = block c in
  expect c ":";
  seek c "; preds:";
  let rec preds acc =
    if at_end c then List.rev acc
    else (
      if acc != [] then expect c ",";
      preds (block c :: acc))
  in
  let preds =
    if c.pos >= c.lim then []
    else (
      c.pos <- c.pos + String.length "; preds:";
      preds [])
  in
  { pb_id = bid; pb_preds = preds; pb_instrs = []; pb_term = None }

(** Parse a graph printed by {!Printer.graph_to_string}.
    @raise Parse_error on malformed input. *)
let parse_graph text =
  let c = { text; start = 0; pos = 0; lim = 0 } in
  let hdr = ref None in
  let blocks : parsed_block list ref = ref [] in
  let current = ref None in
  let n_instrs = ref 0 in
  let n = String.length text in
  let next = ref 0 in
  while !next <= n do
    (* The line [!next, eol), blanks trimmed at both ends. *)
    let eol = ref !next in
    while !eol < n && String.unsafe_get text !eol <> '\n' do incr eol done;
    c.pos <- !next;
    c.lim <- !eol;
    next := !eol + 1;
    skip_blanks c;
    while c.lim > c.pos && is_blank (String.unsafe_get text (c.lim - 1)) do
      c.lim <- c.lim - 1
    done;
    c.start <- c.pos;
    if c.pos = c.lim || (looking_at c "; unreachable:" && c.lim - c.pos = 14)
    then ()
    else if looking_at c "fn " then hdr := Some (header c)
    else if is_block_header c then begin
      Option.iter (fun pb -> blocks := pb :: !blocks) !current;
      current := Some (block_header c)
    end
    else
      match !current with
      | None -> fail "instruction outside a block: %S" (current_line c)
      | Some pb ->
          if peek c = 'v' then begin
            let v = value c in
            expect c "=";
            pb.pb_instrs <- (v, kind c) :: pb.pb_instrs;
            incr n_instrs
          end
          else if Option.is_some pb.pb_term then
            fail "two terminators in b%d (%S)" pb.pb_id (current_line c)
          else pb.pb_term <- Some (term c)
  done;
  Option.iter (fun pb -> blocks := pb :: !blocks) !current;
  let name, n_params, entry_text =
    match !hdr with Some h -> h | None -> fail "missing 'fn' header"
  in
  let parsed = List.rev !blocks in
  (* Pass 1: blocks. *)
  let g = Graph.create ~name ~n_params () in
  let block_map = Hashtbl.create (2 * List.length parsed) in
  List.iter
    (fun pb ->
      if Hashtbl.mem block_map pb.pb_id then fail "duplicate block b%d" pb.pb_id;
      Hashtbl.add block_map pb.pb_id (Graph.add_block g))
    parsed;
  let real_block tb =
    match Hashtbl.find block_map tb with
    | b -> b
    | exception Not_found -> fail "reference to undefined block b%d" tb
  in
  Graph.set_entry g (real_block entry_text);
  (* Pass 2: placeholder instructions (every value id gets a slot). *)
  let value_map = Hashtbl.create (2 * !n_instrs) in
  List.iter
    (fun pb ->
      List.iter
        (fun (tv, k) ->
          if Hashtbl.mem value_map tv then fail "duplicate value v%d" tv;
          (* phis must sit in the phi list from the start *)
          let placeholder = match k with Phi _ -> Phi [||] | _ -> Const 0 in
          Hashtbl.add value_map tv
            (Graph.append g (real_block pb.pb_id) placeholder))
        (List.rev pb.pb_instrs))
    parsed;
  let real_value tv =
    match Hashtbl.find value_map tv with
    | v -> v
    | exception Not_found -> fail "reference to undefined value v%d" tv
  in
  (* Pass 3: terminators (establishes predecessor lists). *)
  List.iter
    (fun pb ->
      match pb.pb_term with
      | None -> fail "block b%d has no terminator" pb.pb_id
      | Some (Jump tb) ->
          Graph.set_term g (real_block pb.pb_id) (Jump (real_block tb))
      | Some (Branch { cond; if_true; if_false; prob }) ->
          Graph.set_term g (real_block pb.pb_id)
            (Branch
               {
                 cond = real_value cond;
                 if_true = real_block if_true;
                 if_false = real_block if_false;
                 prob;
               })
      | Some (Return (Some v)) ->
          Graph.set_term g (real_block pb.pb_id) (Return (Some (real_value v)))
      | Some (Return None) -> Graph.set_term g (real_block pb.pb_id) (Return None)
      | Some Unreachable -> ())
    parsed;
  (* Pass 4: real kinds.  Phi inputs arrive in the *textual* predecessor
     order and are permuted to the reconstructed one. *)
  List.iter
    (fun pb ->
      let bid = real_block pb.pb_id in
      let actual_preds = Graph.preds g bid in
      let permute inputs =
        if pb.pb_preds = [] then inputs
        else begin
          let textual = List.map real_block pb.pb_preds in
          if List.length textual <> Array.length inputs then
            fail "phi arity mismatch in b%d" pb.pb_id;
          Array.of_list
            (List.map
               (fun p ->
                 let rec find i = function
                   | [] -> fail "predecessor mismatch in b%d" pb.pb_id
                   | q :: rest -> if q = p then i else find (i + 1) rest
                 in
                 inputs.(find 0 textual))
               actual_preds)
        end
      in
      List.iter
        (fun (tv, k) ->
          let k =
            match map_inputs real_value k with
            | Phi inputs -> Phi (permute inputs)
            | k -> k
          in
          Graph.set_kind g (real_value tv) k)
        (List.rev pb.pb_instrs))
    parsed;
  g
