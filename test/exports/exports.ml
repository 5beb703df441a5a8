(* The dead-export gate.  Every module [m.ml] under ROOT/lib must have
   an interface [m.mli], so that no module escapes the gate.  Every
   [val v] of such an interface must be used by a .ml or .mli outside
   its own module under lib, bin, bench, perfbench, test or examples: a
   file that names both [v] and [M] as whole words.  A qualified name
   ([M.v]), an [open M] and an alias ([module X = M]) all name [M].  A
   value used only under test/ must be on ALLOWLIST, one
   "Module.value reason" a line.  A word scan can only over-count uses,
   so it never fails a live value.

   Usage: exports.exe ROOT ALLOWLIST.  Prints each offender and exits 1
   if there is one. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "test"; "examples" ]
let read path = In_channel.with_open_bin path In_channel.input_all

let is_word = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The end of the run of word characters that starts at [i]. *)
let rec word_end s i =
  if i < String.length s && is_word s.[i] then word_end s (i + 1) else i

let words text =
  let seen = Hashtbl.create 1024 in
  let rec go i =
    if i < String.length text then
      if is_word text.[i] then (
        let j = word_end text i in
        Hashtbl.replace seen (String.sub text i (j - i)) ();
        go j)
      else go (i + 1)
  in
  go 0;
  seen

let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           let name = String.(trim (sub line 4 (length line - 4))) in
           Some (String.sub name 0 (word_end name 0))
         else None)

(* Source files under [dir], skipping the directories dune skips. *)
let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '_' || name.[0] = '.' then [] else walk path
         else if List.exists (Filename.check_suffix name) [ ".ml"; ".mli" ]
         then [ path ]
         else [])

let () =
  let root = Sys.argv.(1) in
  let allowed =
    String.split_on_char '\n' (read Sys.argv.(2))
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | key :: _ :: _ when key.[0] <> '#' -> Some key
           | _ -> None)
  in
  let files =
    List.concat_map
      (fun r ->
        let dir = Filename.concat root r in
        if not (Sys.file_exists dir) then []
        else List.map (fun f -> (r, f, words (read f))) (walk dir))
      roots
  in
  let failed = ref false in
  let fail fmt = failed := true; Printf.printf fmt in
  let checked = Hashtbl.create 64 in
  let check mli v =
    let stem = Filename.remove_extension mli in
    let m = String.capitalize_ascii (Filename.basename stem) in
    let key = m ^ "." ^ v in
    let listed = List.mem key allowed in
    Hashtbl.replace checked key ();
    let users =
      List.filter
        (fun (_, f, w) ->
          Filename.remove_extension f <> stem && Hashtbl.mem w v
          && Hashtbl.mem w m)
        files
    in
    if users = [] then fail "%s: %s is referenced by no other file\n" mli key
    else if List.exists (fun (r, _, _) -> r <> "test") users then (
      if listed then
        fail "%s: %s is used outside the tests: take it off the allowlist\n"
          mli key)
    else if not listed then
      fail
        "%s: %s is referenced only by tests: allowlist it with a reason, or \
         delete it\n"
        mli key
  in
  List.iter
    (fun (r, f, _) ->
      if r = "lib" && Filename.check_suffix f ".mli" then
        List.iter (check f) (vals (read f))
      else if r = "lib" && not (Sys.file_exists (f ^ "i")) then
        fail "%s: %s has no interface: add %si\n" f
          (String.capitalize_ascii
             (Filename.basename (Filename.remove_extension f)))
          (Filename.basename f))
    files;
  List.iter
    (fun key ->
      if not (Hashtbl.mem checked key) then
        fail "allowlist: %s names no exported value\n" key)
    allowed;
  if !failed then exit 1
