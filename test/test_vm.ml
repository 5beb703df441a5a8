(** The retained engine: every run agrees with a plain interpretation,
    and from the second run on the profile-guided compiled copy runs. *)

module M = Interp.Machine

let check_engine ~what fresh args =
  let eng = Vm.Engine.create (fresh ()) in
  let first = ref 0.0 in
  for run = 1 to 3 do
    let result, stats, globals = Vm.Engine.run_full eng ~args in
    let want_result, _, want_globals = M.run_full (fresh ()) ~args in
    let label fmt = Printf.sprintf ("%s run %d: " ^^ fmt) what run in
    Alcotest.(check string) (label "result")
      (M.result_to_string want_result)
      (M.result_to_string result);
    Alcotest.(check bool) (label "globals") true (globals = want_globals);
    if run = 1 then first := stats.M.cycles
    else
      Alcotest.(check bool)
        (label "fewer cycles than run 1 (%.0f < %.0f)" stats.M.cycles !first)
        true
        (stats.M.cycles < !first)
  done;
  Alcotest.(check int) (what ^ ": no contained failures") 0
    (List.length (Vm.Engine.finish eng))

let test_steady_state () =
  let avrora =
    Option.get
      (Workloads.Suite.find_benchmark (List.hd Workloads.Registry.all) "avrora")
  in
  check_engine ~what:"avrora"
    (fun () -> Workloads.Suite.compile avrora)
    avrora.Workloads.Suite.args;
  let src = Workloads.Progen.generate ~seed:2 () in
  check_engine ~what:"progen seed 2"
    (fun () -> Helpers.compile src)
    [| 5; 7 |]

let suite = [ Helpers.test "steady state beats tier 0" test_steady_state ]
