(** Textual dump of IR graphs, for the CLI driver, tests and debugging.
    One writer per syntactic form, appending to a [Buffer]; the
    [Format] printers are thin wrappers over the same writers. *)

open Types

(* The decimal digits [string_of_int] would print, without the string;
   digits are peeled off the non-positive value so [min_int] needs no
   special case. *)
let add_int b n =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  in
  if n < 0 then (
    Buffer.add_char b '-';
    digits n)
  else digits (-n)

let add_value b v =
  if v = invalid_value then Buffer.add_string b "<invalid>"
  else (
    Buffer.add_char b 'v';
    add_int b v)

(* [Printf.sprintf "%.2f" p] digit for digit, without the format
   interpreter (a branch probability is printed, and hashed, once a
   branch).  [|p|]×100 is rounded to an integer as glibc rounds the
   exact decimal expansion, to nearest with ties to even; the fma's
   sign places the exact product against [k] and [k + 0.5], which the
   rounded product alone cannot.  NaN, infinities and magnitudes from
   1e13 up keep the format interpreter. *)
let prob_to_string p =
  let a = Float.abs p in
  if not (a < 1e13) then Printf.sprintf "%.2f" p
  else begin
    let k = Float.of_int (truncate (a *. 100.)) in
    let k = if Float.fma a 100. (-.k) < 0. then k -. 1. else k in
    let t = Float.fma a 100. (-.(k +. 0.5)) in
    let k = truncate k in
    let n =
      if t < 0. then k else if t > 0. || k land 1 = 1 then k + 1 else k
    in
    let int_part = string_of_int (n / 100) and frac = n mod 100 in
    let sign = if Float.sign_bit p then 1 else 0 in
    let len = String.length int_part in
    let b = Bytes.create (sign + len + 3) in
    if sign = 1 then Bytes.set b 0 '-';
    Bytes.blit_string int_part 0 b sign len;
    Bytes.set b (sign + len) '.';
    Bytes.set b (sign + len + 1) (Char.unsafe_chr (Char.code '0' + (frac / 10)));
    Bytes.set b (sign + len + 2) (Char.unsafe_chr (Char.code '0' + (frac mod 10)));
    Bytes.unsafe_to_string b
  end

let add_block_ref b bid =
  Buffer.add_char b 'b';
  add_int b bid

(* The writers below take the operand writer [add_value]: {!add_kind}
   and {!add_term} print arena ids, the canonical writer its own
   numbering. *)
let add_values add_value b vs =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      add_value b v)
    vs

let add_operands add_value b x y =
  add_value b x;
  Buffer.add_string b ", ";
  add_value b y

let add_kind_with add_value b = function
  | Const n ->
      Buffer.add_string b "const ";
      add_int b n
  | Null -> Buffer.add_string b "null"
  | Param i ->
      Buffer.add_string b "param ";
      add_int b i
  | Binop (op, x, y) ->
      Buffer.add_string b (binop_to_string op);
      Buffer.add_char b ' ';
      add_operands add_value b x y
  | Cmp (op, x, y) ->
      Buffer.add_string b "cmp.";
      Buffer.add_string b (cmpop_to_string op);
      Buffer.add_char b ' ';
      add_operands add_value b x y
  | Neg x ->
      Buffer.add_string b "neg ";
      add_value b x
  | Not x ->
      Buffer.add_string b "not ";
      add_value b x
  | Phi inputs ->
      Buffer.add_string b "phi [";
      add_values add_value b inputs;
      Buffer.add_char b ']'
  | New (cls, args) ->
      Buffer.add_string b "new ";
      Buffer.add_string b cls;
      Buffer.add_char b '(';
      add_values add_value b args;
      Buffer.add_char b ')'
  | Load (o, f) ->
      Buffer.add_string b "load ";
      add_value b o;
      Buffer.add_char b '.';
      Buffer.add_string b f
  | Store (o, f, v) ->
      Buffer.add_string b "store ";
      add_value b o;
      Buffer.add_char b '.';
      Buffer.add_string b f;
      Buffer.add_string b " <- ";
      add_value b v
  | Load_global gl ->
      Buffer.add_string b "gload ";
      Buffer.add_string b gl
  | Store_global (gl, v) ->
      Buffer.add_string b "gstore ";
      Buffer.add_string b gl;
      Buffer.add_string b " <- ";
      add_value b v
  | Call (fn, args) ->
      Buffer.add_string b "call ";
      Buffer.add_string b fn;
      Buffer.add_char b '(';
      add_values add_value b args;
      Buffer.add_char b ')'

let add_kind = add_kind_with add_value

let add_term_with add_value add_block_ref b = function
  | Jump t ->
      Buffer.add_string b "jump ";
      add_block_ref b t
  | Branch { cond; if_true; if_false; prob } ->
      Buffer.add_string b "branch ";
      add_value b cond;
      Buffer.add_string b " ? ";
      add_block_ref b if_true;
      Buffer.add_string b " : ";
      add_block_ref b if_false;
      Buffer.add_string b "  @";
      Buffer.add_string b (prob_to_string prob)
  | Return None -> Buffer.add_string b "return"
  | Return (Some v) ->
      Buffer.add_string b "return ";
      add_value b v
  | Unreachable -> Buffer.add_string b "unreachable"

let add_term = add_term_with add_value add_block_ref

let add_block g b bid =
  add_block_ref b bid;
  Buffer.add_char b ':';
  for i = 0 to Graph.pred_count g bid - 1 do
    Buffer.add_string b (if i = 0 then "  ; preds: " else ", ");
    add_block_ref b (Graph.pred_nth g bid i)
  done;
  Buffer.add_char b '\n';
  Graph.iter_block_instrs g bid (fun id ->
      Buffer.add_string b "  ";
      add_value b id;
      Buffer.add_string b " = ";
      add_kind b (Graph.kind g id);
      Buffer.add_char b '\n');
  Buffer.add_string b "  ";
  add_term b (Graph.term g bid);
  Buffer.add_char b '\n'

let create_buffer g =
  Buffer.create ((24 * Graph.n_instrs g) + (32 * Graph.n_blocks g) + 64)

let add_header g b ~entry =
  Buffer.add_string b "fn ";
  Buffer.add_string b (Graph.name g);
  Buffer.add_char b '(';
  add_int b (Graph.n_params g);
  Buffer.add_string b " params) entry=";
  add_block_ref b entry;
  Buffer.add_char b '\n'

let graph_to_string g =
  let b = create_buffer g in
  add_header g b ~entry:(Graph.entry g);
  (* Reachable blocks in reverse postorder, then any detached ones. *)
  let printed = Bytes.make (max 1 (Graph.n_blocks g)) '\000' in
  List.iter
    (fun bid ->
      Bytes.set printed bid '\001';
      add_block g b bid)
    (Graph.rpo g);
  Graph.iter_blocks g (fun bid ->
      if Bytes.get printed bid = '\000' then begin
        Buffer.add_string b "; unreachable:\n";
        add_block g b bid
      end);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

(* What [graph_to_string] of [Parse.parse_graph (graph_to_string g)]
   prints, written from [g] directly.  The parser numbers blocks by
   print position and values by definition order, rebuilds each
   block's predecessors from the terminators in print order (so they
   come out ascending by canonical number, each once), permutes phi
   inputs to match, keeps phis ahead of the rest of a block, and reads
   a branch with one target twice as a jump. *)

let malformed fmt =
  Printf.ksprintf (fun s -> invalid_arg ("Printer.canonical_to_string: " ^ s)) fmt

let canonical_to_string g =
  let n_blocks = Graph.n_blocks g in
  let block_no = Array.make (max 1 n_blocks) (-1) in
  let order = Array.make (Graph.live_block_count g) (-1) in
  let n_printed = ref 0 in
  let number bid =
    block_no.(bid) <- !n_printed;
    order.(!n_printed) <- bid;
    incr n_printed
  in
  List.iter number (Graph.rpo g);
  let n_reachable = !n_printed in
  Graph.iter_blocks g (fun bid -> if block_no.(bid) < 0 then number bid);
  let value_no = Array.make (max 1 (Graph.n_instrs g)) (-1) in
  let n_values = ref 0 in
  Array.iter
    (fun bid ->
      Graph.iter_block_instrs g bid (fun id ->
          value_no.(id) <- !n_values;
          incr n_values))
    order;
  let canon_block bid =
    if bid >= 0 && bid < n_blocks && block_no.(bid) >= 0 then block_no.(bid)
    else malformed "reference to a dead block b%d" bid
  in
  let canon_value v =
    if v >= 0 && v < Array.length value_no && value_no.(v) >= 0 then value_no.(v)
    else malformed "reference to a value no block holds, v%d" v
  in
  let add_canon_value b v = add_value b (canon_value v) in
  let add_canon_block b bid = add_block_ref b (canon_block bid) in
  let b = create_buffer g in
  let entry = Graph.entry g in
  if entry < 0 then malformed "no entry block";
  add_header g b ~entry:(canon_block entry);
  Array.iteri
    (fun k bid ->
      if k >= n_reachable then Buffer.add_string b "; unreachable:\n";
      (* The predecessors by canonical number, each once: [first.(j)]
         is the position in [g]'s list of the [j]th, which is where a
         phi's input for it sits. *)
      let n_preds = Graph.pred_count g bid in
      let key = Array.init n_preds (fun i -> canon_block (Graph.pred_nth g bid i)) in
      let first = Array.make n_preds 0 in
      let n_unique = ref 0 in
      for i = 0 to n_preds - 1 do
        let p = key.(i) in
        (* insertion by key; a repeated key keeps its first position *)
        let j = ref !n_unique in
        while !j > 0 && key.(first.(!j - 1)) > p do decr j done;
        if not (!j > 0 && key.(first.(!j - 1)) = p) then begin
          Array.blit first !j first (!j + 1) (!n_unique - !j);
          first.(!j) <- i;
          incr n_unique
        end
      done;
      add_block_ref b k;
      Buffer.add_char b ':';
      for j = 0 to !n_unique - 1 do
        Buffer.add_string b (if j = 0 then "  ; preds: " else ", ");
        add_block_ref b key.(first.(j))
      done;
      Buffer.add_char b '\n';
      let add_instr id kind =
        Buffer.add_string b "  ";
        add_value b value_no.(id);
        Buffer.add_string b " = ";
        add_kind_with add_canon_value b kind;
        Buffer.add_char b '\n'
      in
      Graph.iter_block_instrs g bid (fun id ->
          match Graph.kind g id with
          | Phi inputs when n_preds > 0 ->
              if Array.length inputs <> n_preds then
                malformed "phi v%d has %d inputs for %d predecessors" id
                  (Array.length inputs) n_preds;
              add_instr id (Phi (Array.init !n_unique (fun j -> inputs.(first.(j)))))
          | Phi _ as kind -> add_instr id kind
          | _ -> ());
      Graph.iter_block_instrs g bid (fun id ->
          match Graph.kind g id with Phi _ -> () | kind -> add_instr id kind);
      Buffer.add_string b "  ";
      (match Graph.term g bid with
      | Branch { cond; if_true; if_false; _ } when if_true = if_false ->
          ignore (canon_value cond);
          add_term_with add_canon_value add_canon_block b (Jump if_true)
      | t -> add_term_with add_canon_value add_canon_block b t);
      Buffer.add_char b '\n')
    order;
  Buffer.contents b

let to_pp add ppf x =
  let b = Buffer.create 32 in
  add b x;
  Format.pp_print_string ppf (Buffer.contents b)

let pp_kind = to_pp add_kind
let pp_term = to_pp add_term
