(** Cold compile requests shaped like perfbench's [aot-generated]
    service stream, and the server's cold path over them, stage by
    stage: decode the wire message, parse the IR, hash it, compile,
    write the canonical reply IR, publish it to the artifact store and
    render the reply.

    perfbench's generator is not a library, so its mixer is restated
    here; its shape rotation is {!Workloads.Generated.shapes}.
    [functions] yields the post-inline functions its cold requests
    carry, printed as its client prints them. *)

let config = Dbds.Config.dbds

let mix a b =
  let z = ref ((a * 0x1E3779B97F4A7C15) lxor (b + 0x232BE59BD9B4E019)) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF

let shapes = Array.of_list Workloads.Generated.shapes

let source i =
  Workloads.Generated.source
    shapes.(i mod Array.length shapes)
    ~seed:(mix 20180224 (i + 1))

(* The cold requests' programs start at index 1,000,000 of the
   generated suite. *)
let first_program = 1_000_000

(* [(fn, ir)] for every function of programs [first_program] ..
   [first_program + programs - 1], inlined first as the client does. *)
let functions ~programs =
  List.concat_map
    (fun i ->
      let prog = Lang.Frontend.compile (source (first_program + i)) in
      snd (Service.Client.units prog))
    (List.init programs Fun.id)
  |> Array.of_list

let stages = [ "decode"; "parse"; "hash"; "compile"; "canonical"; "store_put"; "render" ]

(* One run of every stage over every function, stage after stage: per
   stage the summed ns and minor words.  The compile works on the
   graphs this run's parse built; the store is a scratch directory. *)
let run_once fns =
  let n_stages = List.length stages in
  let ns = Array.make n_stages 0.0 and minor = Array.make n_stages 0.0 in
  let timed i xs f =
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    let r = Array.map f xs in
    ns.(i) <- (Unix.gettimeofday () -. t0) *. 1e9;
    minor.(i) <- Gc.minor_words () -. w0;
    r
  in
  let wires =
    Array.map
      (fun (fn, ir) ->
        Service.Protocol.render (Service.Client.compile_msg ~config ~fn ~ir ()))
      fns
  in
  ignore (timed 0 wires Service.Protocol.decode);
  let graphs = timed 1 fns (fun (_, ir) -> Ir.Parse.parse_graph ir) in
  ignore (timed 2 graphs Service.Digest.ir_hash_of_graph);
  let works =
    timed 3 graphs (fun g ->
        let r =
          Dbds.Driver.optimize_program_report ~config ~inline:false ~jobs:1
            (Ir.Program.of_graph g)
        in
        r.Dbds.Driver.rep_ctx.Opt.Phase.work)
  in
  let irs = timed 4 graphs Service.Digest.canonical_of_graph in
  let replies = Array.mapi (fun i ir -> (i, ir, works.(i))) irs in
  Harness.Fuzz.with_scratch_dir "dbds-cold-path" (fun dir ->
      let store = Service.Store.create ~capacity:(1 lsl 30) ~dir () in
      ignore
        (timed 5 replies (fun (i, ir, work) ->
             Service.Store.put store ~digest:(Printf.sprintf "%016x" i)
               ~fn:(fst fns.(i)) ~ir ~work)));
  ignore
    (timed 6 replies (fun (_, ir, work) ->
         Service.Protocol.render
           (Service.Protocol.reply_of_outcome
              (Service.Broker.Done { ir; work; from_cache = false }))));
  (ns, minor)

(* Minor words per function of the three text stages a cold request
   pays for besides its compile: parse, hash and the canonical reply
   IR (of the compiled graph).  Deterministic: it counts allocation,
   not time. *)
let text_words_per_fn fns =
  let _, minor = run_once fns in
  (minor.(1) +. minor.(2) +. minor.(4)) /. float_of_int (Array.length fns)
