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

let add_block_ref b bid =
  Buffer.add_char b 'b';
  add_int b bid

let add_values b vs =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      add_value b v)
    vs

let add_operands b x y =
  add_value b x;
  Buffer.add_string b ", ";
  add_value b y

let add_kind b = function
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
      add_operands b x y
  | Cmp (op, x, y) ->
      Buffer.add_string b "cmp.";
      Buffer.add_string b (cmpop_to_string op);
      Buffer.add_char b ' ';
      add_operands b x y
  | Neg x ->
      Buffer.add_string b "neg ";
      add_value b x
  | Not x ->
      Buffer.add_string b "not ";
      add_value b x
  | Phi inputs ->
      Buffer.add_string b "phi [";
      add_values b inputs;
      Buffer.add_char b ']'
  | New (cls, args) ->
      Buffer.add_string b "new ";
      Buffer.add_string b cls;
      Buffer.add_char b '(';
      add_values b args;
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
      add_values b args;
      Buffer.add_char b ')'

let add_term b = function
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
      Printf.bprintf b "  @%.2f" prob
  | Return None -> Buffer.add_string b "return"
  | Return (Some v) ->
      Buffer.add_string b "return ";
      add_value b v
  | Unreachable -> Buffer.add_string b "unreachable"

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

let graph_to_string g =
  let b = Buffer.create ((24 * Graph.n_instrs g) + (32 * Graph.n_blocks g) + 64) in
  Buffer.add_string b "fn ";
  Buffer.add_string b (Graph.name g);
  Buffer.add_char b '(';
  add_int b (Graph.n_params g);
  Buffer.add_string b " params) entry=";
  add_block_ref b (Graph.entry g);
  Buffer.add_char b '\n';
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

let to_pp add ppf x =
  let b = Buffer.create 32 in
  add b x;
  Format.pp_print_string ppf (Buffer.contents b)

let pp_kind = to_pp add_kind
let pp_term = to_pp add_term
