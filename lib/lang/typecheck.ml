(** Static type checker.  Ensures that programs accepted by the frontend
    cannot fault in the interpreter (other than null dereferences, which
    remain runtime errors as in the JVM). *)

open Ast

exception Type_error of string

let err fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

type env = {
  classes : (string, (typ * string) list) Hashtbl.t;
  globals : (string, typ) Hashtbl.t;
  funcs : (string, typ * typ list) Hashtbl.t;
  locals : (string, typ) Hashtbl.t;
      (** every local in scope: no local shadows another, so each name
          has at most one binding *)
  mutable scopes : string list list;
      (** the names each open scope declared, innermost first *)
  ret : typ;
}

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  match env.scopes with
  | names :: rest ->
      List.iter (Hashtbl.remove env.locals) names;
      env.scopes <- rest
  | [] -> assert false

let declare_local env name ty =
  if Hashtbl.mem env.locals name then err "duplicate variable '%s'" name;
  (* Locals may not shadow globals: lowering resolves a name to a local if
     it is declared anywhere in the function. *)
  if Hashtbl.mem env.globals name then err "local '%s' shadows a global" name;
  match env.scopes with
  | names :: rest ->
      Hashtbl.replace env.locals name ty;
      env.scopes <- (name :: names) :: rest
  | [] -> assert false

let lookup_var env name =
  match Hashtbl.find_opt env.locals name with
  | Some ty -> Some ty
  | None -> Hashtbl.find_opt env.globals name

(* [TNull] is represented as the type of the 'null' literal: compatible
   with every class type. *)
let compatible ~expected ~actual =
  match (expected, actual) with
  | TClass _, TClass "<null>" -> true
  | a, b -> a = b

let type_name = typ_to_string

let rec check_expr env = function
  | EInt _ -> TInt
  | EBool _ -> TBool
  | ENull -> TClass "<null>"
  | EVar name -> (
      match lookup_var env name with
      | Some ty -> ty
      | None -> err "unknown variable '%s'" name)
  | EUnop (Neg, e) ->
      let t = check_expr env e in
      if t <> TInt then err "unary '-' expects int, got %s" (type_name t);
      TInt
  | EUnop (Not, e) ->
      let t = check_expr env e in
      if t <> TBool then err "'!' expects bool, got %s" (type_name t);
      TBool
  | EBinop ((AndAlso | OrElse) as op, a, b) ->
      let ta = check_expr env a and tb = check_expr env b in
      if ta <> TBool || tb <> TBool then
        err "'%s' expects bools, got %s and %s" (binop_to_string op)
          (type_name ta) (type_name tb);
      TBool
  | EBinop ((Eq | Ne) as op, a, b) -> (
      let ta = check_expr env a and tb = check_expr env b in
      match (ta, tb) with
      | TInt, TInt | TBool, TBool -> TBool
      | TClass _, TClass _ -> TBool
      | _ ->
          err "'%s' on incompatible types %s and %s" (binop_to_string op)
            (type_name ta) (type_name tb))
  | EBinop ((Lt | Le | Gt | Ge) as op, a, b) ->
      let ta = check_expr env a and tb = check_expr env b in
      if ta <> TInt || tb <> TInt then
        err "'%s' expects ints, got %s and %s" (binop_to_string op)
          (type_name ta) (type_name tb);
      TBool
  | EBinop (op, a, b) ->
      let ta = check_expr env a and tb = check_expr env b in
      if ta <> TInt || tb <> TInt then
        err "'%s' expects ints, got %s and %s" (binop_to_string op)
          (type_name ta) (type_name tb);
      TInt
  | EField (e, field) -> (
      match check_expr env e with
      | TClass cls when cls <> "<null>" -> (
          match Hashtbl.find_opt env.classes cls with
          | None -> err "unknown class '%s'" cls
          | Some fields -> (
              match
                List.find_opt (fun (_, name) -> name = field) fields
              with
              | Some (ty, _) -> ty
              | None -> err "class %s has no field '%s'" cls field))
      | t -> err "field access on non-object type %s" (type_name t))
  | ENew (cls, args) -> (
      match Hashtbl.find_opt env.classes cls with
      | None -> err "unknown class '%s'" cls
      | Some fields ->
          if List.length args <> List.length fields then
            err "new %s expects %d arguments, got %d" cls (List.length fields)
              (List.length args);
          List.iter2
            (fun (fty, fname) arg ->
              let at = check_expr env arg in
              if not (compatible ~expected:fty ~actual:at) then
                err "field %s.%s expects %s, got %s" cls fname (type_name fty)
                  (type_name at))
            fields args;
          TClass cls)
  | ECall (name, args) -> (
      match Hashtbl.find_opt env.funcs name with
      | None -> err "unknown function '%s'" name
      | Some (ret, param_tys) ->
          if List.length args <> List.length param_tys then
            err "%s expects %d arguments, got %d" name (List.length param_tys)
              (List.length args);
          List.iter2
            (fun pty arg ->
              let at = check_expr env arg in
              if not (compatible ~expected:pty ~actual:at) then
                err "argument of %s expects %s, got %s" name (type_name pty)
                  (type_name at))
            param_tys args;
          ret)

let rec check_stmt env = function
  | SDecl (ty, name, init) ->
      if ty = TVoid then err "variable '%s' cannot be void" name;
      (match ty with
      | TClass cls when not (Hashtbl.mem env.classes cls) ->
          err "unknown class '%s'" cls
      | _ -> ());
      (match init with
      | None -> ()
      | Some e ->
          let t = check_expr env e in
          if not (compatible ~expected:ty ~actual:t) then
            err "initializer of '%s' expects %s, got %s" name (type_name ty)
              (type_name t));
      declare_local env name ty
  | SAssign (LVar name, e) -> (
      match lookup_var env name with
      | None -> err "unknown variable '%s'" name
      | Some ty ->
          let t = check_expr env e in
          if not (compatible ~expected:ty ~actual:t) then
            err "assignment to '%s' expects %s, got %s" name (type_name ty)
              (type_name t))
  | SAssign (LField (obj, field), e) -> (
      match check_expr env (EField (obj, field)) with
      | fty ->
          let t = check_expr env e in
          if not (compatible ~expected:fty ~actual:t) then
            err "assignment to field '%s' expects %s, got %s" field
              (type_name fty) (type_name t))
  | SIf { cond; prob; then_; else_ } ->
      let t = check_expr env cond in
      if t <> TBool then err "if condition must be bool, got %s" (type_name t);
      (match prob with
      | Some p when p < 0.0 || p > 1.0 -> err "probability %.3f out of range" p
      | _ -> ());
      push_scope env;
      List.iter (check_stmt env) then_;
      pop_scope env;
      push_scope env;
      List.iter (check_stmt env) else_;
      pop_scope env
  | SWhile { cond; prob; body } ->
      let t = check_expr env cond in
      if t <> TBool then
        err "while condition must be bool, got %s" (type_name t);
      (match prob with
      | Some p when p < 0.0 || p > 1.0 -> err "probability %.3f out of range" p
      | _ -> ());
      push_scope env;
      List.iter (check_stmt env) body;
      pop_scope env
  | SReturn None ->
      if env.ret <> TVoid then
        err "missing return value in non-void function"
  | SReturn (Some e) ->
      if env.ret = TVoid then err "void function returns a value";
      let t = check_expr env e in
      if not (compatible ~expected:env.ret ~actual:t) then
        err "return expects %s, got %s" (type_name env.ret) (type_name t)
  | SExpr e -> ignore (check_expr env e)
  | SBlock stmts ->
      push_scope env;
      List.iter (check_stmt env) stmts;
      pop_scope env

(** Check a whole program; raises {!Type_error} on the first violation. *)
let check_program (p : program) =
  let classes = Hashtbl.create 8 in
  List.iter
    (fun cd ->
      if Hashtbl.mem classes cd.cd_name then
        err "duplicate class '%s'" cd.cd_name;
      Hashtbl.replace classes cd.cd_name cd.cd_fields)
    p.classes;
  let globals = Hashtbl.create 8 in
  List.iter
    (fun gd ->
      if Hashtbl.mem globals gd.gd_name then
        err "duplicate global '%s'" gd.gd_name;
      if gd.gd_type = TVoid then err "global '%s' cannot be void" gd.gd_name;
      Hashtbl.replace globals gd.gd_name gd.gd_type)
    p.globals;
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if Hashtbl.mem funcs f.fn_name then
        err "duplicate function '%s'" f.fn_name;
      Hashtbl.replace funcs f.fn_name
        (f.fn_ret, List.map fst f.fn_params))
    p.functions;
  List.iter
    (fun f ->
      let env =
        {
          classes;
          globals;
          funcs;
          locals = Hashtbl.create 16;
          scopes = [ [] ];
          ret = f.fn_ret;
        }
      in
      List.iter
        (fun (ty, name) ->
          if ty = TVoid then err "parameter '%s' cannot be void" name;
          declare_local env name ty)
        f.fn_params;
      push_scope env;
      List.iter (check_stmt env) f.fn_body;
      pop_scope env)
    p.functions
