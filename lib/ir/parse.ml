(** Parser for the textual IR format produced by {!Printer} — the
    round-trip partner of [graph_to_string].  Lets tests and tools author
    IR fixtures directly and guards the printer against ambiguity (see
    the round-trip property in the test suite).

    One scan walks the text line by line into flat arrays (one kind
    per instruction, one record per block); nothing is copied except
    the names the graph keeps (function, class, field, global), a
    terminator's keyword and a branch probability's digits.  Value ids
    are mapped to arena ids as their definitions are read, through an
    int array (a table when the ids are sparse); an operand defined
    further down is resolved once the scan is done.  The graph is then
    created sized for what the scan counted.

    Reconstruction order matters: blocks are created first, then
    terminators (establishing predecessor lists; the values they read
    are named by the ids the instructions will get), then the
    instructions in text order — with phi inputs permuted from the
    textual predecessor order (recorded in the "; preds:" comments) to
    the reconstructed one.  This order fixes the result's ids, its
    predecessor order and its use-list order (terminator reads are the
    oldest uses of a value), and which error a malformed text raises
    first. *)

open Types

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* The cursor: one line of the text at a time                          *)
(* ------------------------------------------------------------------ *)

(* [pos] advances through the current line, [start, lim) with its
   surrounding blanks trimmed.  [scratch] gathers a line's value or
   block list before it is copied out at its exact length. *)
type cursor = {
  text : string;
  mutable start : int;
  mutable pos : int;
  mutable lim : int;
  mutable scratch : int array;
}

(* The character classes run once a character: inlined, they cost no
   call. *)
let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'
let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] is_word c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_' || c = '.'

let current_line c = String.sub c.text c.start (c.lim - c.start)
let error c what = fail "expected %s in %S" what (current_line c)

(* The loops below keep the position in a local, not in [c.pos]: a
   field stored and reloaded every character is a dependency through
   memory, several times slower than a register. *)
let[@inline] skip_blanks c =
  let text = c.text and lim = c.lim in
  let i = ref c.pos in
  while !i < lim && is_blank (String.unsafe_get text !i) do incr i done;
  c.pos <- !i

let[@inline] peek c = if c.pos < c.lim then String.unsafe_get c.text c.pos else '\000'

let[@inline] at_end c =
  skip_blanks c;
  c.pos >= c.lim

let[@inline] expect_end c = if not (at_end c) then error c "end of line"

(* [text] holds [s] at [at], from its [i]th character on.  A top-level
   loop, not a closure: the matchers below run several times a line. *)
let rec holds text at s i =
  i = String.length s
  || (String.unsafe_get text (at + i) = String.unsafe_get s i && holds text at s (i + 1))

let looking_at c s = c.pos + String.length s <= c.lim && holds c.text c.pos s 0

let expect c s =
  skip_blanks c;
  if looking_at c s then c.pos <- c.pos + String.length s else error c (Printf.sprintf "%S" s)

(* [expect] of a one-character string, without the string. *)
let[@inline] expect_char c ch =
  skip_blanks c;
  if peek c = ch then c.pos <- c.pos + 1 else error c (Printf.sprintf "%S" (String.make 1 ch))

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
  let text = c.text and lim = c.lim in
  let first = c.pos in
  let d0 =
    if signed && first < lim && String.unsafe_get text first = '-' then first + 1
    else first
  in
  let i = ref d0 and n = ref 0 in
  while !i < lim && is_digit (String.unsafe_get text !i) do
    n := (!n * 10) - (Char.code (String.unsafe_get text !i) - Char.code '0');
    incr i
  done;
  c.pos <- !i;
  if !i = d0 then error c what
  else if !i - d0 > 18 then
    match int_of_string_opt (String.sub text first (!i - first)) with
    | Some n -> n
    | None -> error c what
  else if d0 > first then !n
  else - !n

let signed c what =
  skip_blanks c;
  integer ~signed:true c what

(* "vN" / "bN": the letter, then the id's digits. *)
let[@inline] id letter what c =
  skip_blanks c;
  if peek c <> letter then error c what;
  c.pos <- c.pos + 1;
  integer c what

let value c = id 'v' "a value" c
let block c = id 'b' "a block" c

(* A name the graph keeps: everything up to [stop] (['\n']: the end of
   the line), blanks trimmed. *)
let name_until c stop =
  skip_blanks c;
  let text = c.text and lim = c.lim in
  let first = c.pos in
  let i = ref first in
  while !i < lim && String.unsafe_get text !i <> stop do incr i done;
  c.pos <- !i;
  let last = ref !i in
  while !last > first && is_blank (String.unsafe_get text (!last - 1)) do decr last done;
  String.sub text first (!last - first)

(* Append [x] at position [n] of the scratch array, doubling it when
   full. *)
let push_scratch c n x =
  if n = Array.length c.scratch then begin
    let a = Array.make (2 * n) 0 in
    Array.blit c.scratch 0 a 0 n;
    c.scratch <- a
  end;
  Array.unsafe_set c.scratch n x

(* The word at the cursor (letters, digits, '_' and '.'), consumed. *)
let word c =
  skip_blanks c;
  let text = c.text and lim = c.lim in
  let first = c.pos in
  let i = ref first in
  while !i < lim && is_word (String.unsafe_get text !i) do incr i done;
  c.pos <- !i;
  String.sub text first (!i - first)

(* ------------------------------------------------------------------ *)
(* Textual ids                                                         *)
(* ------------------------------------------------------------------ *)

(* Textual id → arena id, -1 when unbound.  Ids below four times the
   definitions seen so far (plus slack) index an int array that grows
   with them; a sparse one (a hostile "v999999999") goes to a table, so
   the map's size follows the definition count, not the largest id.
   Textual ids are never negative: [integer] reads no sign for them. *)
type idmap = {
  mutable dense : int array;
  mutable sparse : (int, int) Hashtbl.t option;
  mutable bound : int;
}

let idmap n = { dense = Array.make (max 16 n) (-1); sparse = None; bound = 0 }

let find m id =
  let d = if id < Array.length m.dense then Array.unsafe_get m.dense id else -1 in
  if d >= 0 then d
  else
    match m.sparse with
    | None -> -1
    | Some h -> ( match Hashtbl.find_opt h id with Some x -> x | None -> -1)

(* Bind an unbound [id]. *)
let bind m id x =
  let n = Array.length m.dense in
  if id >= n && id < (4 * m.bound) + 64 then begin
    let a = Array.make (max (2 * n) (id + 1)) (-1) in
    Array.blit m.dense 0 a 0 n;
    m.dense <- a
  end;
  if id < Array.length m.dense then m.dense.(id) <- x
  else begin
    let h =
      match m.sparse with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 16 in
          m.sparse <- Some h;
          h
    in
    Hashtbl.replace h id x
  end;
  m.bound <- m.bound + 1

(* ------------------------------------------------------------------ *)
(* The scan                                                            *)
(* ------------------------------------------------------------------ *)

type parsed_block = {
  pb_id : int;  (** textual id *)
  pb_preds : int array;  (** textual ids from the "; preds:" comment *)
  pb_first : int;  (** scan index of its first instruction *)
  mutable pb_term : terminator option;  (** over textual ids *)
}

(* Everything the text says.  Block [k]'s instructions are scan indices
   [blocks.(k).pb_first] up to the next block's first (or [n_instrs]);
   an instruction's scan index is its arena id.  A value is bound to
   its scan index when its definition is read, so a kind reads arena
   ids for every operand defined above it; an operand defined further
   down (a loop phi's input) is stored as [forward tv] and resolved
   once the scan is done. *)
type scan = {
  mutable header : (string * int * int) option;
  mutable blocks : parsed_block array;
  mutable n_blocks : int;
  mutable max_block : int;  (** largest textual block id defined *)
  mutable kinds : instr_kind array;
  mutable has_forward : Bytes.t;  (** '\001': the kind has a forward operand *)
  mutable n_instrs : int;
  values : idmap;
  mutable duplicate : int;  (** first textual value id defined twice, or -1 *)
  mutable forward_seen : bool;  (** the current line stored a forward operand *)
}

let forward tv = -2 - tv
let is_forward v = v <= -2

(* An operand: its arena id when its definition has been read, else
   its textual id encoded by [forward]. *)
let[@inline] operand c s =
  let tv = value c in
  let v = find s.values tv in
  if v >= 0 then v
  else (
    s.forward_seen <- true;
    forward tv)

(* Comma-separated operands up to [close] (consumed). *)
let operands c s close =
  skip_blanks c;
  if peek c = close then (
    c.pos <- c.pos + 1;
    [||])
  else begin
    let rec go n =
      push_scratch c n (operand c s);
      skip_blanks c;
      match peek c with
      | ',' ->
          c.pos <- c.pos + 1;
          go (n + 1)
      | ch when ch = close ->
          c.pos <- c.pos + 1;
          n + 1
      | _ -> error c (Printf.sprintf "',' or '%c'" close)
    in
    Array.sub c.scratch 0 (go 0)
  end

let binop c s op =
  let x = operand c s in
  expect_char c ',';
  Binop (op, x, operand c s)

let cmp c s op =
  let x = operand c s in
  expect_char c ',';
  Cmp (op, x, operand c s)

(* Every opcode, with the parser of the rest of its line. *)
let opcodes : (string * (cursor -> scan -> instr_kind)) list =
  [
    ("const", fun c _ -> Const (signed c "a constant"));
    ("param", fun c _ -> Param (signed c "a parameter index"));
    ("null", fun _ _ -> Null);
    ("neg", fun c s -> Neg (operand c s));
    ("not", fun c s -> Not (operand c s));
    ( "phi",
      fun c s ->
        expect_char c '[';
        Phi (operands c s ']') );
    ( "new",
      fun c s ->
        let cls = name_until c '(' in
        expect_char c '(';
        New (cls, operands c s ')') );
    ( "call",
      fun c s ->
        let fn = name_until c '(' in
        expect_char c '(';
        Call (fn, operands c s ')') );
    ( "load",
      fun c s ->
        let o = operand c s in
        expect_char c '.';
        Load (o, name_until c '\n') );
    ( "store",
      fun c s ->
        let o = operand c s in
        expect_char c '.';
        let f = name_until c '<' in
        expect c "<-";
        Store (o, f, operand c s) );
    ("gload", fun c _ -> Load_global (name_until c '\n'));
    ( "gstore",
      fun c s ->
        let gl = name_until c '<' in
        expect c "<-";
        Store_global (gl, operand c s) );
  ]
  @ List.map
      (fun op -> (binop_to_string op, fun c s -> binop c s op))
      [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
  @ List.map
      (fun op -> ("cmp." ^ cmpop_to_string op, fun c s -> cmp c s op))
      [ Eq; Ne; Lt; Le; Gt; Ge ]

(* The opcode at the cursor is looked up without copying it: every
   opcode is at most 7 characters, so 8 bits a character pack it into a
   unique int key, and the keys are searched in sorted order. *)
let pack text first len =
  let k = ref 0 in
  for i = first to first + len - 1 do
    k := (!k lsl 8) lor Char.code (String.unsafe_get text i)
  done;
  !k

let opcode_keys, opcode_parsers =
  let table =
    List.sort compare
      (List.mapi (fun i (name, _) -> (pack name 0 (String.length name), i)) opcodes)
  in
  ( Array.of_list (List.map fst table),
    Array.of_list (List.map (fun (_, i) -> snd (List.nth opcodes i)) table) )

(* The index of the opcode at the cursor (consumed) in the table, or
   -1. *)
let opcode c =
  skip_blanks c;
  let text = c.text and lim = c.lim in
  let first = c.pos in
  let i = ref first in
  while !i < lim && is_word (String.unsafe_get text !i) do incr i done;
  c.pos <- !i;
  if !i - first > 7 then -1
  else begin
    let key = pack text first (!i - first) in
    let lo = ref 0 and hi = ref (Array.length opcode_keys - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let k = opcode_keys.(mid) in
      if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

(* One instruction right-hand side. *)
let kind c s =
  let op = opcode c in
  if op < 0 then fail "cannot parse instruction %S" (current_line c);
  let k = opcode_parsers.(op) c s in
  expect_end c;
  k

(* A terminator line, over textual value/block ids. *)
let term c =
  let t =
    match word c with
    | "jump" -> Jump (block c)
    | "return" -> if at_end c then Return None else Return (Some (value c))
    | "unreachable" -> Unreachable
    | "branch" ->
        (* "branch v3 ? b1 : b2  @0.50" *)
        let cond = value c in
        expect_char c '?';
        let if_true = block c in
        expect_char c ':';
        let if_false = block c in
        let prob =
          if at_end c then 0.5
          else (
            expect_char c '@';
            skip_blanks c;
            let digits = String.sub c.text c.pos (c.lim - c.pos) in
            c.pos <- c.lim;
            match float_of_string_opt digits with
            | Some p -> p
            | None -> error c "a branch probability")
        in
        Branch { cond; if_true; if_false; prob }
    | _ -> fail "cannot parse terminator %S" (current_line c)
  in
  expect_end c;
  t

(* "fn name(N params) entry=bK" *)
let header c =
  expect c "fn ";
  let name = name_until c '(' in
  expect_char c '(';
  let n_params = signed c "a parameter count" in
  expect c "params";
  expect_char c ')';
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

let block_header c ~first =
  let bid = block c in
  expect_char c ':';
  seek c "; preds:";
  let rec preds n =
    if at_end c then n
    else (
      if n > 0 then expect_char c ',';
      push_scratch c n (block c);
      preds (n + 1))
  in
  let n =
    if c.pos >= c.lim then 0
    else (
      c.pos <- c.pos + String.length "; preds:";
      preds 0)
  in
  { pb_id = bid; pb_preds = Array.sub c.scratch 0 n; pb_first = first; pb_term = None }

let add_block s pb =
  if s.n_blocks = Array.length s.blocks then begin
    let a = Array.make (max 8 (2 * s.n_blocks)) pb in
    Array.blit s.blocks 0 a 0 s.n_blocks;
    s.blocks <- a
  end;
  s.blocks.(s.n_blocks) <- pb;
  s.n_blocks <- s.n_blocks + 1;
  if pb.pb_id > s.max_block then s.max_block <- pb.pb_id

(* An instruction line "vN = ...": [tv] is bound before its kind is
   read, as the graph would number it (a phi may read itself). *)
let add_instr c s tv =
  let n = s.n_instrs in
  if n = Array.length s.kinds then begin
    let kinds = Array.make (2 * n) Null in
    Array.blit s.kinds 0 kinds 0 n;
    s.kinds <- kinds;
    s.has_forward <- Bytes.extend s.has_forward 0 n
  end;
  if find s.values tv >= 0 then (if s.duplicate < 0 then s.duplicate <- tv)
  else bind s.values tv n;
  s.forward_seen <- false;
  Array.unsafe_set s.kinds n (kind c s);
  Bytes.unsafe_set s.has_forward n (if s.forward_seen then '\001' else '\000');
  s.n_instrs <- n + 1

(* The next '\n' at or after [i], or [String.length text]: eight bytes
   a step while they hold none (a zero byte of [x lxor "\n\n..."] sets
   its top bit in [(x - 0x01..) land lnot x land 0x80..]). *)
let end_of_line text i =
  let n = String.length text in
  let i = ref i in
  while
    !i + 8 <= n
    &&
    let x = Int64.logxor (String.get_int64_le text !i) 0x0a0a0a0a0a0a0a0aL in
    Int64.equal
      (Int64.logand
         (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
         0x8080808080808080L)
      0L
  do
    i := !i + 8
  done;
  while !i < n && String.unsafe_get text !i <> '\n' do incr i done;
  !i

(* One pass over the text.  Printed IR runs ~28 bytes an instruction
   line, so the per-instruction arrays start near their final size. *)
let scan text =
  let c = { text; start = 0; pos = 0; lim = 0; scratch = Array.make 8 0 } in
  let cap = 16 + (String.length text / 24) in
  let s =
    {
      header = None;
      blocks = [||];
      n_blocks = 0;
      max_block = -1;
      kinds = Array.make cap Null;
      has_forward = Bytes.make cap '\000';
      n_instrs = 0;
      values = idmap cap;
      duplicate = -1;
      forward_seen = false;
    }
  in
  let n = String.length text in
  let next = ref 0 in
  while !next <= n do
    (* The line [!next, eol), blanks trimmed at both ends. *)
    let eol = end_of_line text !next in
    c.pos <- !next;
    next := eol + 1;
    c.lim <- eol;
    skip_blanks c;
    let lim = ref eol in
    while !lim > c.pos && is_blank (String.unsafe_get text (!lim - 1)) do decr lim done;
    c.lim <- !lim;
    c.start <- c.pos;
    (* An instruction line (most lines) is none of the others. *)
    if peek c = 'v' && s.n_blocks > 0 then begin
      let tv = value c in
      expect_char c '=';
      add_instr c s tv
    end
    else if c.pos = c.lim || (looking_at c "; unreachable:" && c.lim - c.pos = 14)
    then ()
    else if looking_at c "fn " then s.header <- Some (header c)
    else if is_block_header c then add_block s (block_header c ~first:s.n_instrs)
    else if s.n_blocks = 0 then
      fail "instruction outside a block: %S" (current_line c)
    else
      let pb = s.blocks.(s.n_blocks - 1) in
      if Option.is_some pb.pb_term then
        fail "two terminators in b%d (%S)" pb.pb_id (current_line c)
      else pb.pb_term <- Some (term c)
  done;
  s

(* ------------------------------------------------------------------ *)
(* Whole-graph parsing                                                 *)
(* ------------------------------------------------------------------ *)

(** Parse a graph printed by {!Printer.graph_to_string}.
    @raise Parse_error on malformed input. *)
let parse_graph text =
  let s = scan text in
  let name, n_params, entry_text =
    match s.header with Some h -> h | None -> fail "missing 'fn' header"
  in
  let nb = s.n_blocks and ni = s.n_instrs in
  let last k = if k + 1 < nb then s.blocks.(k + 1).pb_first else ni in
  (* Pass 1: blocks.  Block [k] of the scan gets arena id [k]. *)
  let g = Graph.create ~name ~instrs:ni ~blocks:nb ~n_params () in
  let block_map = idmap (min (s.max_block + 1) ((4 * nb) + 64)) in
  for k = 0 to nb - 1 do
    let pb = s.blocks.(k) in
    if find block_map pb.pb_id >= 0 then fail "duplicate block b%d" pb.pb_id;
    bind block_map pb.pb_id (Graph.add_block g)
  done;
  let real_block tb =
    let b = find block_map tb in
    if b < 0 then fail "reference to undefined block b%d" tb else b
  in
  Graph.set_entry g (real_block entry_text);
  if s.duplicate >= 0 then fail "duplicate value v%d" s.duplicate;
  let real_value tv =
    let v = find s.values tv in
    if v < 0 then fail "reference to undefined value v%d" tv else v
  in
  (* Pass 2: terminators (establishes predecessor lists).  Their
     values do not exist yet, but their ids are known: the scan index
     of a definition is the id [Graph.append] gives it in pass 3. *)
  for k = 0 to nb - 1 do
    let pb = s.blocks.(k) in
    match pb.pb_term with
    | None -> fail "block b%d has no terminator" pb.pb_id
    | Some (Jump tb) -> Graph.set_term g k (Jump (real_block tb))
    | Some (Branch { cond; if_true; if_false; prob }) ->
        Graph.set_term g k
          (Branch
             {
               cond = real_value cond;
               if_true = real_block if_true;
               if_false = real_block if_false;
               prob;
             })
    | Some (Return (Some v)) -> Graph.set_term g k (Return (Some (real_value v)))
    | Some (Return None) -> Graph.set_term g k (Return None)
    | Some Unreachable -> ()
  done;
  (* Pass 3: instructions, forward operands resolved.  Phi inputs
     arrive in the *textual* predecessor order and are permuted to the
     reconstructed one: [perm.(j)] is the textual position of the
     block's [j]th predecessor, computed at the block's first phi. *)
  let resolve v = if is_forward v then real_value (forward v) else v in
  for k = 0 to nb - 1 do
    let pb = s.blocks.(k) in
    let textual = pb.pb_preds in
    let mapped = ref false and perm = ref [||] and identity = ref false in
    let permute inputs =
      if Array.length textual = 0 then inputs
      else begin
        if not !mapped then begin
          Array.iter (fun tb -> ignore (real_block tb)) textual;
          mapped := true
        end;
        if Array.length textual <> Array.length inputs then
          fail "phi arity mismatch in b%d" pb.pb_id;
        if Array.length !perm = 0 then begin
          let n = Graph.pred_count g k in
          let p =
            Array.init n (fun j ->
                let q = Graph.pred_nth g k j in
                let rec find i =
                  if i = Array.length textual then
                    fail "predecessor mismatch in b%d" pb.pb_id
                  else if real_block textual.(i) = q then i
                  else find (i + 1)
                in
                find 0)
          in
          let id = ref (n = Array.length textual) in
          Array.iteri (fun j i -> if i <> j then id := false) p;
          perm := p;
          identity := !id
        end;
        if !identity then inputs else Array.map (fun i -> inputs.(i)) !perm
      end
    in
    for i = pb.pb_first to last k - 1 do
      let k' = s.kinds.(i) in
      let k' = if Bytes.unsafe_get s.has_forward i = '\000' then k' else map_inputs resolve k' in
      let k' = match k' with Phi inputs -> Phi (permute inputs) | k' -> k' in
      ignore (Graph.append g k k')
    done
  done;
  g
