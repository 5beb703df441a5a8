(** Wire protocol — see the interface for the grammar. *)

type message = { verb : string; fields : (string * string) list }

let magic = "dbds/1"

(* The decoder's ceilings on field bytes and fields per message:
   oversized input is a protocol error, not an allocation. *)
let max_field_bytes = 16 * 1024 * 1024
let max_fields = 32

(* One message renders to one string and travels as one [send]: under
   the simulator that makes a message a single network chunk, so chunk
   faults (drop/reorder/duplicate) act on whole protocol messages. *)
let render m =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s %s %d\n" magic m.verb (List.length m.fields);
  List.iter
    (fun (name, payload) ->
      Printf.bprintf buf "%s %d\n" name (String.length payload);
      Buffer.add_string buf payload;
      Buffer.add_char buf '\n')
    m.fields;
  Buffer.contents buf

(* ---- the incremental decoder ------------------------------------------ *)

type progress = Msg of message * int | More | Err of string

(* A header or field-header line must fit in this many bytes — the
   bound that keeps an attacker from growing the unparsed buffer with
   a newline-free stream. *)
let max_line_bytes = 4096

(* A field count, a field length or an integer header field: decimal
   digits only.  Nine digits cover every bound below. *)
let decimal = Decimal.of_string ~max_digits:9

(* Every message begins with this: once a stream's first bytes cannot,
   it is not a dbds/1 stream, and waiting for a newline would only
   buffer more of it. *)
let header_prefix = magic ^ " "

let decode buf =
  let len = String.length buf in
  let line_at pos =
    let limit = min len (pos + max_line_bytes) in
    let rec find i =
      if i < limit then
        if buf.[i] = '\n' then `Line (String.sub buf pos (i - pos), i + 1)
        else find (i + 1)
      else if limit < pos + max_line_bytes then `More
      else `Err "header line too long"
    in
    find pos
  in
  let rec prefix_ok i =
    i >= min len (String.length header_prefix)
    || (buf.[i] = header_prefix.[i] && prefix_ok (i + 1))
  in
  if not (prefix_ok 0) then Err "bad header: not a dbds/1 message"
  else
    match line_at 0 with
    | `More -> More
    | `Err e -> Err e
    | `Line (header, pos) -> (
        match String.split_on_char ' ' header with
        | [ _; verb; n ] -> (
            match decimal n with
            | Some n when n <= max_fields ->
                let rec fields acc pos = function
                  | 0 -> Msg ({ verb; fields = List.rev acc }, pos)
                  | k -> (
                      match line_at pos with
                      | `More -> More
                      | `Err e -> Err e
                      | `Line (fheader, pos) -> (
                          match String.split_on_char ' ' fheader with
                          | [ name; l ] -> (
                              match decimal l with
                              | Some l when l <= max_field_bytes ->
                                  if pos + l + 1 > len then More
                                  else if buf.[pos + l] <> '\n' then
                                    Err "missing payload terminator"
                                  else
                                    fields
                                      ((name, String.sub buf pos l) :: acc)
                                      (pos + l + 1) (k - 1)
                              | _ -> Err ("bad field length: " ^ fheader))
                          | _ -> Err ("bad field header: " ^ fheader)))
                in
                fields [] pos n
            | _ -> Err ("bad field count: " ^ header))
        | _ -> Err ("bad header: " ^ header))

(* ---- the per-connection reader --------------------------------------- *)

(* [pending] is the unparsed head of the stream: bytes received but not
   yet part of a decoded message. *)
type reader = { mutable pending : string }

let reader () = { pending = "" }
let feed r s = r.pending <- (if r.pending = "" then s else r.pending ^ s)

let next r =
  let p = decode r.pending in
  (match p with
  | Msg (_, used) ->
      r.pending <- String.sub r.pending used (String.length r.pending - used)
  | More | Err _ -> ());
  p

let receive ?(deadline = Float.infinity) r (c : Env.conn) =
  let rec go () =
    match next r with
    | Msg (m, _) -> Ok m
    | Err e -> Error e
    | More -> (
        match c.Env.recv deadline 65536 with
        | s ->
            feed r s;
            go ()
        | exception Env.Net (Env.Eof, _) ->
            Error (if r.pending = "" then "eof" else "truncated message")
        | exception Env.Net (Env.Timeout, _) -> Error "timeout"
        | exception Env.Net (err, _) ->
            Error ("transport: " ^ Env.net_err_to_string err))
  in
  go ()

let field m name = List.assoc_opt name m.fields
let field_or m name default = Option.value (field m name) ~default

let int_field m name =
  match field m name with
  | None -> Ok None
  | Some s -> (
      match decimal s with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "malformed %s: %S" name s))

let retry_after_of_reply m =
  Result.value (int_field m "retry-after-ms") ~default:None

let ms_field m name =
  Result.map (Option.map (fun ms -> float_of_int ms /. 1000.)) (int_field m name)

let ok fields = { verb = "reply"; fields = ("status", "ok") :: fields }

let rejected msg =
  { verb = "reply"; fields = [ ("status", "rejected"); ("message", msg) ] }

(* Config lines whose parse and spec check are remembered: both are
   pure functions of the line, so an entry never goes stale.  A
   service sees a handful of distinct lines; past the limit the table
   starts over. *)
let config_memo_limit = 64
let config_memo : (string, (Dbds.Config.t, string) result) Hashtbl.t =
  Hashtbl.create 8
let config_memo_mx = Mutex.create ()

let config_of_line line =
  match
    Mutex.protect config_memo_mx (fun () -> Hashtbl.find_opt config_memo line)
  with
  | Some r -> r
  | None ->
      let r = Dbds.Config.of_line line in
      Mutex.protect config_memo_mx (fun () ->
          if Hashtbl.length config_memo >= config_memo_limit then
            Hashtbl.reset config_memo;
          Hashtbl.replace config_memo line r);
      r

let compile_config m =
  let ( let* ) = Result.bind in
  let* config = config_of_line (field_or m "config" "") in
  (* Re-attach the fault plan the wire config cannot carry (see
     [Client.compile_msg]): worker-side injection — crash sites, torn
     or corrupted publications — needs it in the job's config. *)
  match field m "inject" with
  | None -> Ok config
  | Some s ->
      let* plan =
        Dbds.Faults.of_string s |> Result.map_error (fun e -> "inject: " ^ e)
      in
      Ok { config with Dbds.Config.fault_plan = Some plan }

let reply_of_outcome (o : Broker.outcome) =
  let fields =
    match o with
    | Broker.Done { ir; work; from_cache } ->
        [
          ("status", if from_cache then "done-cache" else "done");
          ("ir", ir);
          ("work", string_of_int work);
        ]
    | Broker.Failed msg -> [ ("status", "failed"); ("message", msg) ]
    | Broker.Timed_out -> [ ("status", "timed-out") ]
    | Broker.Shed -> [ ("status", "shed") ]
    | Broker.Rejected msg -> [ ("status", "rejected"); ("message", msg) ]
  in
  { verb = "reply"; fields }

let outcome_of_reply m =
  if m.verb <> "reply" then Error ("expected a reply, got " ^ m.verb)
  else
    let msg () = field_or m "message" "" in
    match field m "status" with
    | Some "done" | Some "done-cache" -> (
        match (field m "ir", Decimal.of_string (field_or m "work" "")) with
        | Some ir, Some work ->
            Ok
              (Broker.Done
                 { ir; work; from_cache = field m "status" = Some "done-cache" })
        | _ -> Error "done reply missing ir/work")
    | Some "failed" -> Ok (Broker.Failed (msg ()))
    | Some "timed-out" -> Ok Broker.Timed_out
    | Some "shed" -> Ok Broker.Shed
    | Some "rejected" -> Ok (Broker.Rejected (msg ()))
    | Some s -> Error ("unknown status: " ^ s)
    | None -> Error "reply missing status"
