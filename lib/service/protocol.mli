(** The wire protocol of the compilation service: a small
    length-prefixed text protocol over a Unix-domain socket.

    A {e message} is a verb plus an ordered list of named fields.
    On the wire:

    {v
    message   = header field* ;
    header    = "dbds/1 " verb " " nfields LF ;
    field     = name " " nbytes LF payload LF ;
    payload   = nbytes bytes, verbatim (may contain LF) ;
    v}

    Field payloads are length-prefixed, so IR text travels unescaped.
    Both sides read with {!read}, which validates the magic, bounds
    field sizes and counts, and returns [Error] (never raises) on
    malformed input.

    Verbs (client → server): [compile] (fields [config], [fn], [ir],
    optional [deadline-ms], [delay-ms]), [stats], [ping], [shutdown].
    Server → client: [reply] with a [status] field
    ([ok], [done], [done-cache], [failed], [timed-out], [shed],
    [rejected]) plus verb-specific fields ([ir], [work], [message],
    [broker], [store]). *)

type message = { verb : string; fields : (string * string) list }

(** Hard ceilings enforced by {!read}: per-field bytes and fields per
    message.  Oversized input is a protocol error, not an allocation. *)
val max_field_bytes : int

val max_fields : int

val write : out_channel -> message -> unit

(** Read one message.  [Error] covers EOF at a message boundary
    (rendered ["eof"]), truncation, bad magic, and limit violations. *)
val read : in_channel -> (message, string) result

(** Render one message as its text wire form — what {!write_conn}
    sends as one chunk. *)
val render : message -> string

(** {!write} over an {!Env.conn}: the whole message is rendered and
    sent as one chunk (so simulated chunk faults act on whole
    messages).  May raise {!Env.Net}. *)
val write_conn : Env.conn -> message -> unit

(** {!read} over an {!Env.conn}.  [deadline] is absolute on the
    environment's monotonic clock (default: wait forever); expiry and
    transport failures come back as [Error] ("timeout",
    "transport: ..."), EOF at a message boundary as [Error "eof"] —
    never an exception. *)
val read_conn : ?deadline:float -> Env.conn -> (message, string) result

(** {1 Binary framing}

    The compact frame negotiated per connection by
    [hello framing=binary] (the text protocol stays the default):

    {v
    frame = 0xBF vcode:u8 nfields:u8 field* ;
    field = namelen:u8 name payloadlen:u32be payload ;
    v}

    Verbs map to one-byte codes; code [0] is the extension escape —
    the verb string travels as a leading ["!verb"] field, so new verbs
    never need a framing bump. *)

(** The frame magic byte, [0xBF]. *)
val binary_magic : char

val code_of_verb : string -> int option
val verb_of_code : int -> string option

(** Render one message as one binary frame (one send → one simulated
    chunk, like {!render}'s text form). *)
val render_binary : message -> string

val write_conn_binary : Env.conn -> message -> unit

(** Blocking binary read over an {!Env.conn}; same error discipline as
    {!read_conn}. *)
val read_conn_binary : ?deadline:float -> Env.conn -> (message, string) result

(** {1 Incremental decoding}

    The event-loop half of the protocol: feed the unparsed head of a
    connection's receive buffer, get back a complete message plus how
    many bytes it consumed, a request for more bytes, or a protocol
    error (the frontdoor answers it and closes the connection).  Pure
    functions — they never raise on any input. *)

type progress = Msg of message * int | More | Err of string

(** A header/field-header line must terminate within this many bytes —
    bounds buffer growth against newline-free garbage. *)
val max_line_bytes : int

(** Incremental text-protocol decoder. *)
val decode : string -> progress

(** Incremental binary-frame decoder. *)
val decode_binary : string -> progress

(** First payload under [name], if present. *)
val field : message -> string -> string option

(** {!field} with a default. *)
val field_or : message -> string -> string -> string

(** An integer millisecond field ([deadline-ms], [delay-ms]) in
    seconds; [None] when absent or malformed. *)
val ms_field : message -> string -> float option

(** A [reply] with status [ok] and the given fields after it. *)
val ok : (string * string) list -> message

(** A [reply] with status [rejected] and [message]. *)
val rejected : string -> message

(** The configuration a [compile] request asks for: its [config] line
    with the fault plan of its optional [inject] field attached.
    [Error] when the line does not parse ({!Dbds.Config.of_line}), its
    pipeline spec fails {!Dbds.Driver.validate_spec}, or the plan does
    not parse — the front ends answer [rejected] instead of compiling a
    pipeline the client never asked for.  The parse and validation are
    memoized on the exact config line; the plan is attached per
    request. *)
val compile_config : message -> (Dbds.Config.t, string) result

(** Build a [reply] carrying a {!Broker.outcome}. *)
val reply_of_outcome : Broker.outcome -> message

(** Parse a [reply] back into a {!Broker.outcome}. *)
val outcome_of_reply : message -> (Broker.outcome, string) result

(** The structured backoff hint a shed reply carries
    ([retry-after-ms]), when present and well-formed. *)
val retry_after_of_reply : message -> int option

(** Protocol fields of a membership view ([epoch], [nodes]); used by
    the fleet verbs [join] (reply), [view] (reply) and [rebalance]
    (request). *)
val view_fields : Member.view -> (string * string) list

(** Parse a view out of a message carrying {!view_fields}. *)
val view_of_message : message -> Member.view option
