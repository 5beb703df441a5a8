(** Hand-written lexer with line/column tracking. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW_CLASS
  | KW_GLOBAL
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | KW_NEW
  | KW_NULL
  | KW_TRUE
  | KW_FALSE
  | KW_INT
  | KW_BOOL
  | KW_VOID
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | SEMI
  | COMMA
  | DOT
  | AT
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | AMPAMP
  | PIPE
  | PIPEPIPE
  | CARET
  | SHL
  | SHR
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | BANG
  | EOF

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int * int

val token_to_string : token -> string

(** Tokenize a whole source string (ending with [EOF]).  ["// ..."] and
    ["/* ... */"] comments are skipped.
    @raise Lex_error with a position on invalid input. *)
val tokenize : string -> located list
