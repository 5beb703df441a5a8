(** Fuzz smoke: runs every fuzzer and every compile-matrix oracle of
    {!Harness.Fuzz} and prints one line each, with its counts and wall
    time.  Wired into [dune runtest]; it exits 1 if any line reports a
    violation or checked nothing (a zero first count). *)

let failed = ref false

let report (r : Harness.Fuzz.result) =
  Printf.printf "fuzz %s: %s (%.1fs)\n%!" r.name
    (String.concat ", "
       (List.map (fun (label, n) -> Printf.sprintf "%d %s" n label) r.counts))
    r.seconds;
  (match r.counts with
  | (label, 0) :: _ ->
      Printf.eprintf "fuzz %s: 0 %s, nothing was checked\n" r.name label;
      failed := true
  | _ -> ());
  if r.violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) r.violations;
    Printf.eprintf "%d %s violation(s)\n%!" (List.length r.violations) r.name;
    failed := true
  end

let () =
  List.iter
    (fun f -> report (f ()))
    Harness.Fuzz.[ run; run_service; run_frontdoor ];
  List.iter report (Harness.Fuzz.run_matrix ());
  if !failed then exit 1
