(** The wire protocol of the compilation service: a small
    length-prefixed text protocol over a Unix-domain socket.

    A {e message} is a verb plus an ordered list of named fields.
    On the wire:

    {v
    message   = header field* ;
    header    = "dbds/1 " verb " " nfields LF ;
    field     = name " " nbytes LF payload LF ;
    nfields   = decimal digits, at most max_fields ;
    nbytes    = decimal digits, at most max_field_bytes ;
    payload   = nbytes bytes, verbatim (may contain LF) ;
    v}

    Field payloads are length-prefixed, so IR text travels unescaped.
    The wire is parsed in exactly one place — {!decode}, pure and
    exception-free — and every connection reads through a {!reader}
    built on it: the front door's event loop and the clients.

    Verbs (client → server): [compile] (fields [config], [fn], [ir],
    optional [context] — the program's class layouts and globals,
    {!Digest.context_of_program}, omitted when empty — [deadline-ms],
    [delay-ms], [inject]), [stats], [ping],
    [shutdown], [lookup] ([digest]).
    Server → client: [reply] with a [status] field ([ok], [done],
    [done-cache], [failed], [timed-out], [shed], [rejected]; [hit] and
    [miss] answer [lookup]) plus verb-specific fields ([ir], [work],
    [message], [retry-after-ms], [broker], [store], [counts],
    [frontdoor]). *)

type message = { verb : string; fields : (string * string) list }

(** Hard ceilings enforced by the decoder: per-field bytes and fields
    per message.  Oversized input is a protocol error, not an
    allocation. *)
val max_field_bytes : int

val max_fields : int

(** Render one message as its wire form — what {!write_conn} sends as
    one chunk. *)
val render : message -> string

(** Send one message: the whole message is
    rendered and sent as one chunk (so simulated chunk faults act on
    whole messages).  May raise {!Env.Net}. *)
val write_conn : Env.conn -> message -> unit

(** {1 Incremental decoding}

    Feed the unparsed head of a connection's stream, get back a
    complete message plus how many bytes it consumed, a request for
    more bytes, or a protocol error (the front door answers it and
    closes the connection).  A pure function — it never raises on any
    input. *)

type progress = Msg of message * int | More | Err of string

(** A header/field-header line must terminate within this many bytes —
    bounds buffer growth against newline-free garbage that begins like
    a header. *)
val max_line_bytes : int

(** Incremental decoder.  Bytes that cannot begin ["dbds/1 "] are an
    [Err] as soon as they arrive, without waiting for a newline. *)
val decode : string -> progress

(** {1 The per-connection reader}

    A connection's unparsed bytes.  The event loop {!feed}s it whatever
    arrived and takes messages with {!next}; a blocking reader calls
    {!receive}, which decodes what is buffered and, on [More], blocks
    in the conn's [recv] for more bytes.  One reader per connection,
    one owner at a time. *)

type reader

val reader : unit -> reader

(** Append received bytes. *)
val feed : reader -> string -> unit

(** Decode the next buffered message; a [Msg]'s bytes are consumed.  After [Err] the stream is desynchronized: the
    reader answers the same [Err] again. *)
val next : reader -> progress

(** Block for the next message on [conn].  [deadline] is absolute on
    the environment's monotonic clock (default: wait forever).  Every
    failure is an [Error], never an exception: a decoder error, the
    peer closing at a message boundary (["eof"]) or inside a message
    (["truncated message"]), ["timeout"], or ["transport: ..."]. *)
val receive :
  ?deadline:float -> reader -> Env.conn -> (message, string) result

(** {!receive} for a caller holding only the connection: its reader is
    kept in a table keyed weakly by the conn. *)
val read_conn : ?deadline:float -> Env.conn -> (message, string) result

(** First payload under [name], if present. *)
val field : message -> string -> string option

(** {!field} with a default. *)
val field_or : message -> string -> string -> string

(** A millisecond header field ([deadline-ms], [delay-ms]) in seconds:
    [Ok None] when absent, [Error] naming the field when present but
    not decimal digits (at most nine) — the one header-field parser,
    which {!retry_after_of_reply} shares.  A reply's [work] goes
    through the same digits-only check ({!Decimal}), with the wider
    bound a work count needs. *)
val ms_field : message -> string -> (float option, string) result

(** A [reply] with status [ok] and the given fields after it. *)
val ok : (string * string) list -> message

(** A [reply] with status [rejected] and [message]. *)
val rejected : string -> message

(** The configuration a [compile] request asks for: its [config] line
    with the fault plan of its optional [inject] field attached.
    [Error] when the line does not parse ({!Dbds.Config.of_line}, which
    checks its pipeline spec) or the plan does not parse — the front
    ends answer [rejected] instead of compiling a pipeline the client
    never asked for.  The parse is memoized on the exact config line;
    the plan is attached per request. *)
val compile_config : message -> (Dbds.Config.t, string) result

(** Build a [reply] carrying a {!Broker.outcome}. *)
val reply_of_outcome : Broker.outcome -> message

(** Parse a [reply] back into a {!Broker.outcome}.  A done reply's
    [work] must be decimal digits. *)
val outcome_of_reply : message -> (Broker.outcome, string) result

(** The structured backoff hint a shed reply carries
    ([retry-after-ms]), when present and well-formed (decimal digits,
    as for {!ms_field}). *)
val retry_after_of_reply : message -> int option
