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

let fnv_char st c =
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

let canonical_of_graph g =
  Ir.Printer.graph_to_string (Ir.Parse.parse_graph (Ir.Printer.graph_to_string g))

let canonical_of_text text =
  Ir.Printer.graph_to_string (Ir.Parse.parse_graph text)

(* Streaming canonical IR hash: one graph traversal feeding FNV-1a
   directly, no strings built.  The token stream renumbers blocks by
   reverse-postorder position and values by first appearance in stream
   order — exactly the normalization the print → parse → print
   round-trip performs — so the hash is invariant under any id
   renumbering and under the round-trip itself, at a fraction of the
   cost (the digest is the hot path of every cache lookup).  Branch
   probabilities are fed at the printer's %.2f precision so a printed
   artifact round-trips to the same hash. *)
let ir_hash_int64 g =
  let st = fnv_state () in
  let feed_char c = fnv_char st c in
  let feed s = fnv_string st s in
  (* The decimal digits [string_of_int] would print, without the
     string; digits are peeled off the non-positive value so [min_int]
     needs no special case. *)
  let feed_int n =
    let rec digits n =
      if n <= -10 then digits (n / 10);
      feed_char (Char.unsafe_chr (Char.code '0' - (n mod 10)))
    in
    if n < 0 then (
      feed_char '-';
      digits n)
    else digits (-n)
  in
  let blocks = Hashtbl.create 32 in
  let values = Hashtbl.create 64 in
  let next_value = ref 0 in
  let feed_block bid =
    feed_char 'b';
    feed_int (try Hashtbl.find blocks bid with Not_found -> -1)
  in
  let feed_value v =
    feed_char 'v';
    if v = Ir.Types.invalid_value then feed_char '?'
    else
      feed_int
        (match Hashtbl.find_opt values v with
        | Some n -> n
        | None ->
            let n = !next_value in
            incr next_value;
            Hashtbl.add values v n;
            n)
  in
  let feed_values vs =
    Array.iter
      (fun v ->
        feed_value v;
        feed_char ',')
      vs
  in
  let feed_kind = function
    | Ir.Types.Const n ->
        feed "const ";
        feed_int n
    | Ir.Types.Null -> feed "null"
    | Ir.Types.Param i ->
        feed "param ";
        feed_int i
    | Ir.Types.Binop (op, a, b) ->
        feed (Ir.Types.binop_to_string op);
        feed_char ' ';
        feed_value a;
        feed_char ',';
        feed_value b
    | Ir.Types.Cmp (op, a, b) ->
        feed "cmp.";
        feed (Ir.Types.cmpop_to_string op);
        feed_char ' ';
        feed_value a;
        feed_char ',';
        feed_value b
    | Ir.Types.Neg a ->
        feed "neg ";
        feed_value a
    | Ir.Types.Not a ->
        feed "not ";
        feed_value a
    | Ir.Types.Phi inputs ->
        (* Only a malformed phi (arity ≠ predecessor count, which the
           verifier rejects) reaches here; well-formed ones are
           canonicalized against predecessor order in [hash_block]. *)
        feed "phi ";
        feed_values inputs
    | Ir.Types.New (cls, args) ->
        feed "new ";
        feed cls;
        feed_char '(';
        feed_values args;
        feed_char ')'
    | Ir.Types.Load (o, f) ->
        feed "load ";
        feed_value o;
        feed_char '.';
        feed f
    | Ir.Types.Store (o, f, v) ->
        feed "store ";
        feed_value o;
        feed_char '.';
        feed f;
        feed "<-";
        feed_value v
    | Ir.Types.Load_global gl ->
        feed "gload ";
        feed gl
    | Ir.Types.Store_global (gl, v) ->
        feed "gstore ";
        feed gl;
        feed "<-";
        feed_value v
    | Ir.Types.Call (fn, args) ->
        feed "call ";
        feed fn;
        feed_char '(';
        feed_values args;
        feed_char ')'
  in
  let feed_term = function
    | Ir.Types.Jump b ->
        feed "jump ";
        feed_block b
    | Ir.Types.Branch { cond; if_true; if_false; prob } ->
        feed "branch ";
        feed_value cond;
        feed_char '?';
        feed_block if_true;
        feed_char ':';
        feed_block if_false;
        feed_char '@';
        feed (Printf.sprintf "%.2f" prob)
    | Ir.Types.Return None -> feed "return"
    | Ir.Types.Return (Some v) ->
        feed "return ";
        feed_value v
    | Ir.Types.Unreachable -> feed "unreachable"
  in
  let dense_block bid = try Hashtbl.find blocks bid with Not_found -> -1 in
  let hash_block bid =
    feed_block bid;
    feed_char ':';
    let n_preds = Ir.Graph.pred_count g bid in
    Ir.Graph.iter_block_instrs g bid (fun id ->
        feed_value id;
        feed_char '=';
        match Ir.Graph.kind g id with
        | Ir.Types.Phi inputs when n_preds = Array.length inputs ->
            (* Phi inputs align with the block's predecessor list, and
               predecessor order is a representation detail the parser
               is free to rebuild differently — hash the inputs as
               (predecessor, value) pairs sorted by canonical
               predecessor id instead. *)
            let pairs =
              Array.mapi
                (fun i v -> (dense_block (Ir.Graph.pred_nth g bid i), v))
                inputs
            in
            Array.sort (fun (p, _) (q, _) -> compare (p : int) q) pairs;
            feed "phi ";
            Array.iter
              (fun (p, v) ->
                feed_char 'b';
                feed_int p;
                feed_char ':';
                feed_value v;
                feed_char ',')
              pairs;
            feed_char ';'
        | kind ->
            feed_kind kind;
            feed_char ';');
    feed_term (Ir.Graph.term g bid);
    feed_char '\n'
  in
  feed "fn ";
  feed (Ir.Graph.name g);
  feed_char '(';
  feed_int (Ir.Graph.n_params g);
  feed ") entry=";
  (* Dense block numbering: reachable blocks by RPO position, detached
     ones appended in iteration order — mirroring the printer. *)
  let rpo = Ir.Graph.rpo g in
  List.iteri (fun i bid -> Hashtbl.replace blocks bid i) rpo;
  let n_reachable = List.length rpo in
  let next_block = ref n_reachable in
  Ir.Graph.iter_blocks g (fun bid ->
      if not (Hashtbl.mem blocks bid) then begin
        Hashtbl.replace blocks bid !next_block;
        incr next_block
      end);
  feed_block (Ir.Graph.entry g);
  feed_char '\n';
  List.iter hash_block rpo;
  Ir.Graph.iter_blocks g (fun bid ->
      if dense_block bid >= n_reachable then begin
        feed ";unreachable\n";
        hash_block bid
      end);
  state_get st 0

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
