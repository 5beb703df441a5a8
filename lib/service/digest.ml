(** Content addressing for compilation requests — see the interface for
    the canonicalization argument. *)

type request = {
  rq_fn : string;
  rq_ir_hash : string;
  rq_context : string;
  rq_config : string;
  rq_cost_revision : int;
}

(* 64-bit FNV-1a.  Dependency-free and plenty for a content-addressed
   cache whose entries are checksummed again on read; framing below
   makes component boundaries unambiguous. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The running hash lives in an 8-byte buffer accessed through the
   compiler's unboxed 64-bit primitives: an [int64 ref] shared with the
   feeding closures would box a fresh int64 on every byte. *)
external state_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external state_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let fnv_state () =
  let st = Bytes.create 8 in
  state_set st 0 fnv_offset;
  st

let[@inline] fnv_char st c =
  state_set st 0
    (Int64.mul
       (Int64.logxor (state_get st 0) (Int64.of_int (Char.code c)))
       fnv_prime)

let fnv_string st s =
  for i = 0 to String.length s - 1 do
    fnv_char st (String.unsafe_get s i)
  done

let fnv64_int64 s =
  let st = fnv_state () in
  fnv_string st s;
  state_get st 0

let fnv64 s = Printf.sprintf "%016Lx" (fnv64_int64 s)

let canonical_of_graph = Ir.Printer.canonical_to_string
let canonical_of_text text = canonical_of_graph (Ir.Parse.parse_graph text)

(* Streaming canonical IR hash: one graph traversal feeding FNV-1a
   directly, no strings built.  The token stream renumbers blocks by
   reverse-postorder position and values by first appearance in stream
   order — exactly the normalization the print → parse → print
   round-trip performs — so the hash is invariant under any id
   renumbering and under the round-trip itself, at a fraction of the
   cost (the digest is the hot path of every cache lookup).  Branch
   probabilities are fed at the printer's %.2f precision so a printed
   artifact round-trips to the same hash.

   The numberings are int arrays indexed by id ([-1]: not numbered
   yet), and every feeder is a top-level function over the hasher:
   no table and no closure per hash. *)
type hasher = {
  st : Bytes.t;
  block_no : int array;  (** canonical block number, or -1 *)
  value_no : int array;  (** canonical value number, or -1 *)
  mutable next_value : int;
}

let[@inline] feed_char h c = fnv_char h.st c
let feed h s = fnv_string h.st s

(* The decimal digits [string_of_int] would print, without the string;
   digits are peeled off the non-positive value so [min_int] needs no
   special case. *)
let rec feed_digits h n =
  if n <= -10 then feed_digits h (n / 10);
  feed_char h (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let feed_int h n =
  if n < 0 then (
    feed_char h '-';
    feed_digits h n)
  else feed_digits h (-n)

let dense_block h bid =
  if bid >= 0 && bid < Array.length h.block_no then h.block_no.(bid) else -1

let feed_block h bid =
  feed_char h 'b';
  feed_int h (dense_block h bid)

let value_number h v =
  if v < 0 || v >= Array.length h.value_no then
    invalid_arg (Printf.sprintf "Digest.ir_hash_of_graph: operand v%d outside the graph" v);
  let n = h.value_no.(v) in
  if n >= 0 then n
  else begin
    let n = h.next_value in
    h.next_value <- n + 1;
    h.value_no.(v) <- n;
    n
  end

let feed_value h v =
  feed_char h 'v';
  if v = Ir.Types.invalid_value then feed_char h '?' else feed_int h (value_number h v)

let feed_values h vs =
  for i = 0 to Array.length vs - 1 do
    feed_value h vs.(i);
    feed_char h ','
  done

let feed_operands h a b =
  feed_char h ' ';
  feed_value h a;
  feed_char h ',';
  feed_value h b

let feed_kind h = function
  | Ir.Types.Const n ->
      feed h "const ";
      feed_int h n
  | Ir.Types.Null -> feed h "null"
  | Ir.Types.Param i ->
      feed h "param ";
      feed_int h i
  | Ir.Types.Binop (op, a, b) ->
      feed h (Ir.Types.binop_to_string op);
      feed_operands h a b
  | Ir.Types.Cmp (op, a, b) ->
      feed h "cmp.";
      feed h (Ir.Types.cmpop_to_string op);
      feed_operands h a b
  | Ir.Types.Neg a ->
      feed h "neg ";
      feed_value h a
  | Ir.Types.Not a ->
      feed h "not ";
      feed_value h a
  | Ir.Types.Phi inputs ->
      (* Only a malformed phi (arity ≠ predecessor count, which the
         verifier rejects) reaches here; well-formed ones are
         canonicalized against predecessor order in [hash_block]. *)
      feed h "phi ";
      feed_values h inputs
  | Ir.Types.New (cls, args) ->
      feed h "new ";
      feed h cls;
      feed_char h '(';
      feed_values h args;
      feed_char h ')'
  | Ir.Types.Load (o, f) ->
      feed h "load ";
      feed_value h o;
      feed_char h '.';
      feed h f
  | Ir.Types.Store (o, f, v) ->
      feed h "store ";
      feed_value h o;
      feed_char h '.';
      feed h f;
      feed h "<-";
      feed_value h v
  | Ir.Types.Load_global gl ->
      feed h "gload ";
      feed h gl
  | Ir.Types.Store_global (gl, v) ->
      feed h "gstore ";
      feed h gl;
      feed h "<-";
      feed_value h v
  | Ir.Types.Call (fn, args) ->
      feed h "call ";
      feed h fn;
      feed_char h '(';
      feed_values h args;
      feed_char h ')'

let feed_term h = function
  | Ir.Types.Jump b ->
      feed h "jump ";
      feed_block h b
  | Ir.Types.Branch { cond; if_true; if_false; prob } ->
      feed h "branch ";
      feed_value h cond;
      feed_char h '?';
      feed_block h if_true;
      feed_char h ':';
      feed_block h if_false;
      feed_char h '@';
      feed h (Ir.Printer.prob_to_string prob)
  | Ir.Types.Return None -> feed h "return"
  | Ir.Types.Return (Some v) ->
      feed h "return ";
      feed_value h v
  | Ir.Types.Unreachable -> feed h "unreachable"

(* Phi inputs align with the block's predecessor list, and predecessor
   order is a representation detail the parser is free to rebuild
   differently — hash the inputs as (predecessor, value) pairs sorted by
   canonical predecessor id instead.  Already-ascending predecessors
   need no sort; otherwise [Array.sort] permutes positions, making the
   comparisons (and so the order of ties) of a sort of the pairs. *)
let feed_phi h g bid inputs =
  let n = Array.length inputs in
  let key = Array.init n (fun i -> dense_block h (Ir.Graph.pred_nth g bid i)) in
  let order = Array.init n Fun.id in
  let ascending = ref true in
  for i = 1 to n - 1 do
    if key.(i - 1) >= key.(i) then ascending := false
  done;
  if not !ascending then
    Array.sort (fun i j -> compare (key.(i) : int) key.(j)) order;
  feed h "phi ";
  for i = 0 to n - 1 do
    let j = order.(i) in
    feed_char h 'b';
    feed_int h key.(j);
    feed_char h ':';
    feed_value h inputs.(j);
    feed_char h ','
  done;
  feed_char h ';'

let hash_block h g bid =
  feed_block h bid;
  feed_char h ':';
  let n_preds = Ir.Graph.pred_count g bid in
  Ir.Graph.iter_block_instrs g bid (fun id ->
      feed_value h id;
      feed_char h '=';
      match Ir.Graph.kind g id with
      | Ir.Types.Phi inputs when n_preds = Array.length inputs ->
          feed_phi h g bid inputs
      | kind ->
          feed_kind h kind;
          feed_char h ';');
  feed_term h (Ir.Graph.term g bid);
  feed_char h '\n'

let ir_hash_int64 g =
  let h =
    {
      st = fnv_state ();
      block_no = Array.make (Ir.Graph.n_blocks g) (-1);
      value_no = Array.make (Ir.Graph.n_instrs g) (-1);
      next_value = 0;
    }
  in
  feed h "fn ";
  feed h (Ir.Graph.name g);
  feed_char h '(';
  feed_int h (Ir.Graph.n_params g);
  feed h ") entry=";
  (* Dense block numbering: reachable blocks by RPO position, detached
     ones appended in iteration order — mirroring the printer. *)
  let rpo = Array.of_list (Ir.Graph.rpo g) in
  Array.iteri (fun i bid -> h.block_no.(bid) <- i) rpo;
  let n_reachable = Array.length rpo in
  let next_block = ref n_reachable in
  Ir.Graph.iter_blocks g (fun bid ->
      if h.block_no.(bid) < 0 then begin
        h.block_no.(bid) <- !next_block;
        incr next_block
      end);
  feed_block h (Ir.Graph.entry g);
  feed_char h '\n';
  Array.iter (hash_block h g) rpo;
  Ir.Graph.iter_blocks g (fun bid ->
      if h.block_no.(bid) >= n_reachable then begin
        feed h ";unreachable\n";
        hash_block h g bid
      end);
  state_get h.st 0

let ir_hash_of_graph g = Printf.sprintf "%016Lx" (ir_hash_int64 g)
let ir_hash_of_text text = ir_hash_of_graph (Ir.Parse.parse_graph text)

let context_of_program (p : Ir.Program.t) =
  let classes =
    Hashtbl.fold (fun _ c acc -> c :: acc) p.Ir.Program.classes []
    |> List.sort (fun a b ->
           compare a.Ir.Program.cls_name b.Ir.Program.cls_name)
    |> List.map (fun c ->
           Printf.sprintf "class %s: %s" c.Ir.Program.cls_name
             (String.concat "," c.Ir.Program.fields))
  in
  let globals =
    match List.sort compare p.Ir.Program.globals with
    | [] -> []
    | gs -> [ "globals: " ^ String.concat "," gs ]
  in
  String.concat "\n" (classes @ globals)

let facts_of_context context =
  let names what s =
    let l = if s = "" then [] else String.split_on_char ',' s in
    if List.mem "" l then Error ("empty " ^ what ^ " name") else Ok l
  in
  let rec go classes globals = function
    | [] -> Ok (List.rev classes, Option.value globals ~default:[])
    | line :: rest -> (
        let fail why = Error (Printf.sprintf "%s: %S" why line) in
        let is_class = String.starts_with ~prefix:"class " line in
        let is_globals = String.starts_with ~prefix:"globals:" line in
        match String.index_opt line ':' with
        | None when is_class -> fail "class line without ':'"
        | None -> fail "unknown line"
        | Some _ when not (is_class || is_globals) -> fail "unknown line"
        | Some i -> (
            let tail =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            match names (if is_globals then "global" else "field") tail with
            | Error e -> fail e
            | Ok _ when is_globals && globals <> None ->
                fail "repeated globals line"
            | Ok gs when is_globals -> go classes (Some gs) rest
            | Ok fields ->
                let cls_name = String.sub line 6 (i - 6) in
                if cls_name = "" then fail "empty class name"
                else if
                  List.exists (fun c -> c.Ir.Program.cls_name = cls_name) classes
                then fail "repeated class"
                else go ({ Ir.Program.cls_name; fields } :: classes) globals rest))
  in
  if context = "" then Ok ([], [])
  else go [] None (String.split_on_char '\n' context)

let request_of_graph ?(context = "") ?fn ~config g =
  {
    rq_fn = Option.value fn ~default:(Ir.Graph.name g);
    rq_ir_hash = ir_hash_of_graph g;
    rq_context = context;
    rq_config = Dbds.Config.to_line config;
    rq_cost_revision = Costmodel.Cost.revision;
  }

let request_of_text ?context ~config ~fn text =
  request_of_graph ?context ~fn ~config (Ir.Parse.parse_graph text)

(* Length-prefixed framing: a component can never bleed into the next
   (["ab" ^ "c"] vs ["a" ^ "bc"] hash differently). *)
let of_request r =
  let buf = Buffer.create 256 in
  let frame tag s =
    Buffer.add_string buf
      (Printf.sprintf "%s:%d:" tag (String.length s));
    Buffer.add_string buf s
  in
  frame "fn" r.rq_fn;
  frame "ir" r.rq_ir_hash;
  frame "context" r.rq_context;
  frame "config" r.rq_config;
  frame "cost" (string_of_int r.rq_cost_revision);
  fnv64 (Buffer.contents buf)
