(** Resilience smoke (satellite e): fuzz the containment contract over
    100 (graph seed × fault plan) pairs at jobs:1 and jobs:4.  Wired
    into [dune runtest]; any violation fails the build. *)

let () =
  let r = Harness.Fuzz.run () in
  Printf.printf "fuzz: %d pairs run, %d contained failures" r.Harness.Fuzz.pairs_run
    r.Harness.Fuzz.contained;
  if r.Harness.Fuzz.by_site <> [] then
    Printf.printf " (%s)"
      (String.concat ", "
         (List.map
            (fun (site, n) -> Printf.sprintf "%s x%d" site n)
            r.Harness.Fuzz.by_site));
  print_newline ();
  (match r.Harness.Fuzz.violations with
  | [] -> ()
  | vs ->
      List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
      Printf.eprintf "%d containment violation(s)\n" (List.length vs);
      exit 1);
  (* Artifact-store property (reduced count for runtest): torn writes,
     torn publications and read faults never crash; corrupted entries
     are evicted and recompiled; cold and warm passes match an uncached
     reference at jobs:1 and jobs:4. *)
  let s = Harness.Fuzz.run_service ~graph_seeds:(List.init 6 Fun.id) () in
  Printf.printf
    "fuzz service: %d pairs run, %d store hits, %d degraded-and-recovered\n"
    s.Harness.Fuzz.s_pairs_run s.Harness.Fuzz.s_store_hits
    s.Harness.Fuzz.s_recovered;
  match s.Harness.Fuzz.s_violations with
  | [] -> ()
  | vs ->
      List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
      Printf.eprintf "%d service violation(s)\n" (List.length vs);
      exit 1
;;
(* Workload-lab property (reduced progen count for runtest): the
   condelim_dup tier (dbds as control) over the adversarial corpus —
   jobs 1-vs-4 byte identity with and without fault plans, paranoid
   preserves audits contain nothing, and no region run of a classic
   pass leaves work for its whole-graph run.  The region check must not
   go empty: the classic fixpoint after each DBDS round runs regions. *)
let l = Harness.Fuzz.run_lab ~progen_seeds:[ 0; 1 ] () in
Printf.printf
  "fuzz lab: %d identity pairs, %d paranoid runs, %d region checks\n"
  l.Harness.Fuzz.l_pairs_run l.Harness.Fuzz.l_paranoid_runs
  l.Harness.Fuzz.l_regions_checked;
if l.Harness.Fuzz.l_regions_checked = 0 then begin
  Printf.eprintf "fuzz lab: no region checks ran\n";
  exit 1
end;
(match l.Harness.Fuzz.l_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d lab violation(s)\n" (List.length vs);
    exit 1)
;;
(* Frontdoor wire hardening: adversarial bytes through the pure decoder
   (a stream that cannot begin "dbds/1 " is refused at once) and
   garbage clients against a live simulated frontdoor — junk earns a
   structured rejection or a clean close, never an escaping exception
   or a wedged event loop. *)
let f = Harness.Fuzz.run_frontdoor () in
Printf.printf
  "fuzz frontdoor: %d decoder cases, %d stream cases, %d server runs, %d \
   structured rejections\n"
  f.Harness.Fuzz.f_decoder_cases f.Harness.Fuzz.f_stream_cases
  f.Harness.Fuzz.f_server_runs
  f.Harness.Fuzz.f_rejected;
match f.Harness.Fuzz.f_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d frontdoor violation(s)\n" (List.length vs);
    exit 1
;;
(* Region-run oracle: region runs (memo on) and whole-graph runs (memo
   off) must compile every paper, lab and progen program to the same
   IR, raw ids included, with the same duplication stats. *)
let r = Harness.Fuzz.run_regions () in
Printf.printf "fuzz regions: %d programs, %d functions compared\n"
  r.Harness.Fuzz.r_programs r.Harness.Fuzz.r_functions;
match r.Harness.Fuzz.r_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d region violation(s)\n" (List.length vs);
    exit 1

;;
(* The DBDS round's action steps leave SCCP out: after the dbds tier,
   one SCCP run on a copy of each compiled function must fire nothing,
   on every paper, lab and generated-shape program (the progen programs
   are the quiescence check's, below). *)
let s = Harness.Fuzz.run_sccp_after_dbds () in
Printf.printf "fuzz sccp-after-dbds: %d programs, %d functions checked\n"
  s.Harness.Fuzz.sc_programs s.Harness.Fuzz.sc_functions;
match s.Harness.Fuzz.sc_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d sccp-after-dbds violation(s)\n" (List.length vs);
    exit 1

;;
(* The classic fixpoint ends quiescent: after an off or dbds compile,
   no classic pass, SCCP included, fires on a whole-graph run over a
   copy of any progen function, plain or irreducible.  The count of
   fix groups stopped by their rounds cap is reported, not gated. *)
let q = Harness.Fuzz.run_quiescent () in
Printf.printf
  "fuzz quiescent: %d compiles, %d functions checked, %d fix groups capped\n"
  q.Harness.Fuzz.qu_programs q.Harness.Fuzz.qu_functions
  q.Harness.Fuzz.qu_capped;
match q.Harness.Fuzz.qu_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d quiescence violation(s)\n" (List.length vs);
    exit 1

;;
(* The reachability bit is honest: paranoid compiles of progen
   programs, plain and irreducible, under the duplicating tiers verify
   after every pass and duplication that a clear bit leaves no block
   unreachable, and must contain nothing.  Seeds 0-199 under dbds
   (plain only: the region oracle above compiles the irreducible ones
   in paranoid mode) and condelim_dup; backtracking, which reruns the
   whole optimizer per attempt, on seeds 0-19 (0-199 would add about
   two minutes). *)
let p = Harness.Fuzz.run_paranoid () in
Printf.printf "fuzz paranoid: %d compiles\n" p.Harness.Fuzz.pa_compiles;
match p.Harness.Fuzz.pa_violations with
| [] -> ()
| vs ->
    List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) vs;
    Printf.eprintf "%d paranoid violation(s)\n" (List.length vs);
    exit 1
