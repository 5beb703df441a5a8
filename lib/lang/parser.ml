(** Recursive-descent parser, with precedence climbing for the binary
    operators.  Precedence, lowest to highest:
    [||] < [&&] < [|] < [^] < [&] < [== !=] < [< <= > >=] < [<< >>]
    < [+ -] < [* / %] < unary < postfix field access. *)

open Ast
open Lexer

exception Parse_error of string * int * int

type state = { mutable toks : located list }

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let error st msg =
  let t = peek st in
  raise
    (Parse_error
       (Printf.sprintf "%s (found '%s')" msg (token_to_string t.tok), t.line, t.col))

let advance st =
  match st.toks with
  | [] -> assert false
  | { tok = EOF; _ } :: _ -> ()
  | _ :: rest -> st.toks <- rest

(* Only ever called with constant (payload-free) constructors, which are
   immediates — physical equality decides exactly. *)
let check st tok = (peek st).tok == tok

let accept st tok =
  if check st tok then begin
    advance st;
    true
  end
  else false

let expect st tok msg = if not (accept st tok) then error st msg

let expect_ident st msg =
  match (peek st).tok with
  | IDENT s ->
      advance st;
      s
  | _ -> error st msg

(* ---- types ---- *)

let parse_type st =
  match (peek st).tok with
  | KW_INT ->
      advance st;
      TInt
  | KW_BOOL ->
      advance st;
      TBool
  | KW_VOID ->
      advance st;
      TVoid
  | IDENT s ->
      advance st;
      TClass s
  | _ -> error st "expected a type"

(* ---- expressions ---- *)

(* The binary operators and their precedence, lowest first; every level
   is left-associative. *)
let binop_of_token = function
  | PIPEPIPE -> Some (1, OrElse)
  | AMPAMP -> Some (2, AndAlso)
  | PIPE -> Some (3, BitOr)
  | CARET -> Some (4, BitXor)
  | AMP -> Some (5, BitAnd)
  | EQ -> Some (6, Eq)
  | NE -> Some (6, Ne)
  | LT -> Some (7, Lt)
  | LE -> Some (7, Le)
  | GT -> Some (7, Gt)
  | GE -> Some (7, Ge)
  | SHL -> Some (8, Shl)
  | SHR -> Some (8, Shr)
  | PLUS -> Some (9, Add)
  | MINUS -> Some (9, Sub)
  | STAR -> Some (10, Mul)
  | SLASH -> Some (10, Div)
  | PERCENT -> Some (10, Rem)
  | _ -> None

(* Precedence climbing: one loop over the operators at or above
   [min_prec] instead of one function per level, with the same tree and
   the same tokens consumed in the same order. *)
let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek st).tok with
    | Some (prec, op) when prec >= min_prec ->
        advance st;
        lhs := EBinop (op, !lhs, parse_binary st (prec + 1))
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  if accept st MINUS then EUnop (Neg, parse_unary st)
  else if accept st BANG then EUnop (Not, parse_unary st)
  else parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  while accept st DOT do
    let field = expect_ident st "expected field name after '.'" in
    e := EField (!e, field)
  done;
  !e

and parse_args st =
  expect st LPAREN "expected '('";
  if accept st RPAREN then []
  else begin
    let args = ref [ parse_expr st ] in
    while accept st COMMA do
      args := parse_expr st :: !args
    done;
    expect st RPAREN "expected ')'";
    List.rev !args
  end

and parse_primary st =
  match (peek st).tok with
  | INT n ->
      advance st;
      EInt n
  | KW_TRUE ->
      advance st;
      EBool true
  | KW_FALSE ->
      advance st;
      EBool false
  | KW_NULL ->
      advance st;
      ENull
  | KW_NEW ->
      advance st;
      let cls = expect_ident st "expected class name after 'new'" in
      ENew (cls, parse_args st)
  | IDENT name ->
      advance st;
      if check st LPAREN then ECall (name, parse_args st) else EVar name
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st RPAREN "expected ')'";
      e
  | _ -> error st "expected an expression"

(* ---- statements ---- *)

let parse_prob st =
  if accept st AT then begin
    match (peek st).tok with
    | FLOAT f ->
        advance st;
        Some f
    | INT n ->
        advance st;
        Some (float_of_int n)
    | _ -> error st "expected a probability after '@'"
  end
  else None

let rec parse_block st =
  expect st LBRACE "expected '{'";
  let stmts = ref [] in
  while not (check st RBRACE) do
    if check st EOF then error st "unterminated block";
    stmts := parse_stmt st :: !stmts
  done;
  expect st RBRACE "expected '}'";
  List.rev !stmts

and parse_stmt st =
  match (peek st).tok with
  | KW_IF ->
      advance st;
      expect st LPAREN "expected '(' after 'if'";
      let cond = parse_expr st in
      expect st RPAREN "expected ')'";
      let prob = parse_prob st in
      let then_ = parse_block st in
      let else_ =
        if accept st KW_ELSE then
          if check st KW_IF then [ parse_stmt st ] else parse_block st
        else []
      in
      SIf { cond; prob; then_; else_ }
  | KW_WHILE ->
      advance st;
      expect st LPAREN "expected '(' after 'while'";
      let cond = parse_expr st in
      expect st RPAREN "expected ')'";
      let prob = parse_prob st in
      let body = parse_block st in
      SWhile { cond; prob; body }
  | KW_RETURN ->
      advance st;
      if accept st SEMI then SReturn None
      else begin
        let e = parse_expr st in
        expect st SEMI "expected ';' after return";
        SReturn (Some e)
      end
  | LBRACE -> SBlock (parse_block st)
  | KW_INT | KW_BOOL | KW_VOID ->
      let ty = parse_type st in
      parse_decl_tail st ty
  | IDENT name -> (
      (* Could be: class-typed declaration `A p ...;`, assignment, or an
         expression statement.  Disambiguate on the second token. *)
      match st.toks with
      | _ :: { tok = IDENT _; _ } :: _ ->
          advance st;
          parse_decl_tail st (TClass name)
      | _ ->
          let e = parse_expr st in
          parse_assign_or_expr st e)
  | _ ->
      let e = parse_expr st in
      parse_assign_or_expr st e

and parse_decl_tail st ty =
  let name = expect_ident st "expected variable name" in
  let init = if accept st ASSIGN then Some (parse_expr st) else None in
  expect st SEMI "expected ';'";
  SDecl (ty, name, init)

and parse_assign_or_expr st e =
  if accept st ASSIGN then begin
    let rhs = parse_expr st in
    expect st SEMI "expected ';'";
    match e with
    | EVar name -> SAssign (LVar name, rhs)
    | EField (obj, field) -> SAssign (LField (obj, field), rhs)
    | _ -> error st "invalid assignment target"
  end
  else begin
    expect st SEMI "expected ';'";
    SExpr e
  end

(* ---- declarations ---- *)

let parse_class st =
  expect st KW_CLASS "expected 'class'";
  let cd_name = expect_ident st "expected class name" in
  expect st LBRACE "expected '{'";
  let fields = ref [] in
  while not (check st RBRACE) do
    let ty = parse_type st in
    let name = expect_ident st "expected field name" in
    expect st SEMI "expected ';' after field";
    fields := (ty, name) :: !fields
  done;
  expect st RBRACE "expected '}'";
  { cd_name; cd_fields = List.rev !fields }

let parse_global st =
  expect st KW_GLOBAL "expected 'global'";
  let ty = parse_type st in
  let name = expect_ident st "expected global name" in
  expect st SEMI "expected ';'";
  { gd_name = name; gd_type = ty }

let parse_function st ret name =
  expect st LPAREN "expected '('";
  let params = ref [] in
  if not (check st RPAREN) then begin
    let parse_param () =
      let ty = parse_type st in
      let pname = expect_ident st "expected parameter name" in
      params := (ty, pname) :: !params
    in
    parse_param ();
    while accept st COMMA do
      parse_param ()
    done
  end;
  expect st RPAREN "expected ')'";
  let body = parse_block st in
  { fn_name = name; fn_ret = ret; fn_params = List.rev !params; fn_body = body }

(** Parse a whole program. *)
let parse_program src =
  let st = { toks = Lexer.tokenize src } in
  let classes = ref [] and globals = ref [] and functions = ref [] in
  while not (check st EOF) do
    match (peek st).tok with
    | KW_CLASS -> classes := parse_class st :: !classes
    | KW_GLOBAL -> globals := parse_global st :: !globals
    | _ ->
        let ret = parse_type st in
        let name = expect_ident st "expected function name" in
        functions := parse_function st ret name :: !functions
  done;
  {
    classes = List.rev !classes;
    globals = List.rev !globals;
    functions = List.rev !functions;
  }
