(** On-disk content-addressed artifact store — see the interface for the
    atomicity / checksum / GC disciplines. *)

module F = Dbds.Faults

type entry = { ar_fn : string; ar_ir : string; ar_work : int }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_failures : int;
  mutable read_failures : int;
  mutable corrupt : int;
  mutable evictions : int;
}

type t = {
  env : Env.t;
  dir : string;
  capacity : int;
  mutex : Env.mutex;
  (* In-memory accounting only: recency-ordered (most recent first)
     [digest, bytes] pairs.  The filesystem stays the source of truth —
     a file published by another process is found by [get] even before
     it enters this index. *)
  mutable lru : (string * int) list;
  (* Verified-entry memo for [lookup]: digest -> entry.  Populated
     only after a successful disk read (so every artifact is
     checksum-verified and parse-validated at least once per process),
     dropped whenever the entry is evicted, discarded or republished —
     the memo never outlives the file it mirrors. *)
  parsed : (string, entry) Hashtbl.t;
  stats : stats;
}

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    writes = 0;
    write_failures = 0;
    read_failures = 0;
    corrupt = 0;
    evictions = 0;
  }

let magic = "dbds-artifact: v1"
let art_suffix = ".art"
let path_of t digest = Filename.concat t.dir (digest ^ art_suffix)

let locked t f =
  t.mutex.Env.lock ();
  Fun.protect ~finally:(fun () -> t.mutex.Env.unlock ()) f

(* ---- rendering / parsing ------------------------------------------- *)

let render ~digest ~fn ~ir ~work =
  String.concat "\n"
    [
      magic;
      "digest: " ^ digest;
      "function: " ^ fn;
      "work: " ^ string_of_int work;
      "checksum: " ^ Digest.fnv64 ir;
      "--- ir ---";
      ir;
    ]

(* Returns [None] on any structural or checksum mismatch, including a
   [work] header that is not decimal digits. *)
let parse ~digest content =
  let marker = "\n--- ir ---\n" in
  let split_header () =
    match String.index_opt content '\000' with
    | Some _ -> None (* artifacts are text; NUL means garbage *)
    | None -> (
        (* The first occurrence of [marker], compared in place. *)
        let n = String.length content and m = String.length marker in
        let rec matches i j =
          j = m
          || String.unsafe_get content (i + j) = String.unsafe_get marker j
             && matches i (j + 1)
        in
        let rec find i =
          if i + m > n then None
          else if matches i 0 then Some i
          else find (i + 1)
        in
        match find 0 with
        | None -> None
        | Some i ->
            let header = String.sub content 0 i in
            let ir =
              String.sub content
                (i + String.length marker)
                (String.length content - i - String.length marker)
            in
            Some (header, ir))
  in
  match split_header () with
  | None -> None
  | Some (header, ir) -> (
      let field key =
        let prefix = key ^ ": " in
        String.split_on_char '\n' header
        |> List.find_map (fun line ->
               if String.length line > String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix
               then
                 Some
                   (String.sub line (String.length prefix)
                      (String.length line - String.length prefix))
               else None)
      in
      match
        ( String.split_on_char '\n' header,
          field "digest",
          field "function",
          field "work",
          field "checksum" )
      with
      | first :: _, Some d, Some fn, Some work, Some checksum
        when first = magic ->
          if d <> digest then None
          else if Digest.fnv64 ir <> checksum then None
          else
            Option.map
              (fun w -> { ar_fn = fn; ar_ir = ir; ar_work = w })
              (Decimal.of_string work)
      | _ -> None)

(* ---- construction --------------------------------------------------- *)

let create ?(env = Env.real) ?(capacity = 8 * 1024 * 1024) ~dir () =
  (try env.Env.mkdir dir with Sys_error _ -> ());
  let lru =
    match env.Env.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        (* Deterministic initial recency: name order (the environment
           sorts).  Real recency only matters once the store is warm. *)
        Array.to_list names
        |> List.filter_map (fun name ->
               if Filename.check_suffix name art_suffix then
                 let digest = Filename.chop_suffix name art_suffix in
                 match env.Env.file_size (Filename.concat dir name) with
                 | size -> Some (digest, size)
                 | exception Sys_error _ -> None
               else None)
  in
  {
    env;
    dir;
    capacity;
    mutex = env.Env.mutex ();
    lru;
    parsed = Hashtbl.create 64;
    stats = fresh_stats ();
  }

let dir t = t.dir
let stats t = t.stats
let used_unlocked t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.lru
let used t = locked t (fun () -> used_unlocked t)

(* ---- index maintenance (call under the lock) ------------------------ *)

let index_remove t digest =
  t.lru <- List.filter (fun (d, _) -> d <> digest) t.lru

let index_touch t digest size =
  index_remove t digest;
  t.lru <- (digest, size) :: t.lru

let remove_file t digest =
  try t.env.Env.remove (path_of t digest) with Sys_error _ -> ()

let drop_unlocked t digest =
  remove_file t digest;
  Hashtbl.remove t.parsed digest;
  index_remove t digest

(* Evict least-recently-used artifacts until the byte budget holds.
   The head of [lru] (what was just published / hit) is never evicted,
   so a single oversized artifact still lives until the next publish. *)
let gc t =
  let rec loop () =
    if used_unlocked t > t.capacity then
      match List.rev t.lru with
      | [] | [ _ ] -> ()
      | (victim, _) :: _ ->
          drop_unlocked t victim;
          t.stats.evictions <- t.stats.evictions + 1;
          loop ()
  in
  loop ()

(* ---- operations ----------------------------------------------------- *)

let get t ~digest =
  locked t (fun () ->
      match
        F.hit F.Store_read;
        t.env.Env.read_file (path_of t digest)
      with
      | exception F.Injected _ ->
          t.stats.read_failures <- t.stats.read_failures + 1;
          t.stats.misses <- t.stats.misses + 1;
          None
      | exception Sys_error _ ->
          t.stats.misses <- t.stats.misses + 1;
          None
      | content -> (
          match parse ~digest content with
          | Some e ->
              index_touch t digest (String.length content);
              t.stats.hits <- t.stats.hits + 1;
              Some e
          | None ->
              (* A torn or rotten artifact is evicted and reported as a
                 miss — corruption must never stop a compilation. *)
              drop_unlocked t digest;
              t.stats.corrupt <- t.stats.corrupt + 1;
              t.stats.misses <- t.stats.misses + 1;
              None))

(* Mutate an artifact's IR subtly: bump the first integer literal.  The
   render below checksums the {e mutated} text, so every later read
   validates — a wrong artifact the store itself cannot detect.  Only
   reachable when [Store_corrupt] is armed explicitly: it is a
   deliberate bug planted for the whole-system simulator's end-to-end
   invariant checker (and its shrinker demo) to catch. *)
let corrupt_ir ir =
  let key = "const " in
  let klen = String.length key in
  let len = String.length ir in
  let rec find i =
    if i + klen > len then None
    else if String.sub ir i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> ir
  | Some j ->
      let k = ref j in
      if !k < len && ir.[!k] = '-' then incr k;
      while !k < len && ir.[!k] >= '0' && ir.[!k] <= '9' do
        incr k
      done;
      if !k = j then ir
      else
        let n = int_of_string (String.sub ir j (!k - j)) in
        String.sub ir 0 j
        ^ string_of_int (n + 1)
        ^ String.sub ir !k (len - !k)

let put t ~digest ~fn ~ir ~work =
  locked t (fun () ->
      let ir =
        match F.hit F.Store_corrupt with
        | () -> ir
        | exception F.Injected _ -> corrupt_ir ir
      in
      let content = render ~digest ~fn ~ir ~work in
      let final = path_of t digest in
      let tmp =
        Filename.concat t.dir (Printf.sprintf ".tmp.%s.%d" digest t.env.Env.pid)
      in
      let cleanup_tmp () = try t.env.Env.remove tmp with Sys_error _ -> () in
      match
        t.env.Env.mkdir t.dir;
        (* Fault sites around the temp write: an injected [Store_write]
           models a crash mid-payload.  Because the payload is still
           under its temp name, the store stays clean — the publication
           simply never happens. *)
        F.hit F.Store_write;
        t.env.Env.write_file tmp content;
        F.hit F.Store_write;
        (* The publication point.  An injected [Store_rename] models a
           torn publish — a crash where the entry appears under its
           final name truncated (what a real crash between data write
           and metadata flush can leave behind). *)
        F.hit F.Store_rename;
        t.env.Env.rename tmp final
      with
      | () ->
          (* Digest-addressed content is immutable in principle, but a
             republish may follow a torn predecessor — never let a
             stale memo shadow the fresh file. *)
          Hashtbl.remove t.parsed digest;
          index_touch t digest (String.length content);
          t.stats.writes <- t.stats.writes + 1;
          gc t
      | exception F.Injected { site = F.Store_write; _ } ->
          cleanup_tmp ();
          t.stats.write_failures <- t.stats.write_failures + 1
      | exception F.Injected { site = F.Store_rename; _ } ->
          (* Simulate the tear: publish a truncated payload under the
             final name.  A later [get] sees the checksum mismatch,
             evicts it and recompiles. *)
          let torn = String.sub content 0 (String.length content / 2) in
          (try t.env.Env.write_file final torn with Sys_error _ -> ());
          cleanup_tmp ();
          Hashtbl.remove t.parsed digest;
          index_touch t digest (String.length torn);
          t.stats.write_failures <- t.stats.write_failures + 1
      | exception F.Injected _ | exception Sys_error _ ->
          cleanup_tmp ();
          t.stats.write_failures <- t.stats.write_failures + 1)

let discard t ~digest =
  locked t (fun () ->
      drop_unlocked t digest;
      t.stats.corrupt <- t.stats.corrupt + 1)

(* ---- the lookup chain ---------------------------------------------- *)

let memo_find t ~digest =
  locked t (fun () ->
      match Hashtbl.find_opt t.parsed digest with
      | Some _ as found ->
          t.stats.hits <- t.stats.hits + 1;
          (match List.assoc_opt digest t.lru with
          | Some bytes -> index_touch t digest bytes
          | None -> ());
          found
      | None -> None)

let parses e =
  match Ir.Parse.parse_graph e.ar_ir with _ -> true | exception _ -> false

(* A checksummed artifact whose IR fails to parse is semantic
   corruption the checksum cannot see: evicted like any other corrupt
   entry.  A verified one is memoized — but only while the entry is
   still indexed, so a concurrent eviction between the read and here
   wins. *)
let from_disk t ~digest =
  match get t ~digest with
  | Some e when parses e ->
      locked t (fun () ->
          if List.mem_assoc digest t.lru then Hashtbl.replace t.parsed digest e);
      Some e
  | Some _ ->
      discard t ~digest;
      None
  | None -> None

let lookup ?(memory_only = false) t ~digest =
  match memo_find t ~digest with
  | Some _ as hit -> hit
  | None when memory_only -> None
  | None -> from_disk t ~digest

let pp_stats ppf s =
  Format.fprintf ppf
    "store: hits=%d misses=%d writes=%d write_failures=%d read_failures=%d \
     corrupt=%d evictions=%d"
    s.hits s.misses s.writes s.write_failures s.read_failures s.corrupt
    s.evictions
