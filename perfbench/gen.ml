(* Workload definitions: every input the program sees is generated here
   from the workload name and the seed. *)

type program = {
  uid : string;  (** distinct per source text *)
  src : string;
  args : int array;
}

type workload = {
  name : string;
  fresh_every : int;
      (** every [fresh_every]-th compile job and service request is fresh
          generated code (1 = all of them, 0 = none); the rest repeat
          the paper programs *)
  quality_jobs : int;
      (** compile jobs whose distinct programs define the output-quality
          metrics: whole shuffled blocks, so the same programs for any
          seed and the metrics are exact counts *)
  compile_jobs : int;  (** compile jobs per run of [reference_seconds] *)
  compile_windows : int;  (** ... cut into this many windows of equal size *)
  fixed_rps : float;  (** the service's named fixed offered rate *)
  fixed_requests : int;  (** requests per service window *)
}

(* A run does a fixed amount of work per window, sized so that a run
   takes about [reference_seconds] on the host the benchmark was tuned
   on; [--seconds] scales the number of windows.  Fixed window sizes keep
   the tail percentile's level (which depends on the sample count) the
   same on every run and every commit; each compile window's count sits
   inside its level's range: p99 from 1000 samples on the paper mixes,
   where [pmd] owns the tail, and p90 from 100 on the generated suite.
   Fixed rates sit well below the one-worker capacity of each request
   mix. *)
let reference_seconds = 20.0

let workloads =
  [
    { name = "aot-paper"; fresh_every = 0; quality_jobs = 46; compile_jobs = 8464; compile_windows = 8;
      fixed_rps = 300.0; fixed_requests = 500 };
    { name = "aot-generated"; fresh_every = 1; quality_jobs = 160; compile_jobs = 1280; compile_windows = 8;
      fixed_rps = 60.0; fixed_requests = 60 };
    { name = "service-mixed"; fresh_every = 10; quality_jobs = 80; compile_jobs = 6400; compile_windows = 4;
      fixed_rps = 300.0; fixed_requests = 500 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let is_fresh w k = w.fresh_every > 0 && k mod w.fresh_every = w.fresh_every - 1

(* A small deterministic mixer (splitmix64-style, on 62-bit ints) so
   that every stream is a pure function of (seed, stream, index). *)
let mix a b =
  let z = ref ((a * 0x1E3779B97F4A7C15) lxor (b + 0x232BE59BD9B4E019)) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF

let paper =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (s : Workloads.Suite.t) ->
            List.filter_map
              (fun (b : Workloads.Suite.benchmark) ->
                if b.builder <> None then None
                else Some { uid = s.suite_name ^ "/" ^ b.name; src = b.source; args = b.args })
              s.benchmarks)
          Workloads.Registry.all))

(* Shapes of fresh programs, in a fixed rotation: progen programs of
   varied size and nesting ([`Progen (n_helpers, depth)]) and
   interpreter-style dispatch loops, the shape where duplication pays
   most.  Rotating instead of drawing the shape gives every block of the
   generated suite the same mix. *)
let shapes =
  [| `Progen (1, 2); `Progen (2, 3); `Dispatch 4; `Progen (3, 3); `Progen (4, 4); `Dispatch 8; `Progen (2, 4); `Progen (3, 2) |]

let suite_seed = 20180224

let fresh i =
  let r = mix suite_seed (i + 1) in
  match shapes.(i mod Array.length shapes) with
  | `Dispatch handlers ->
      {
        uid = Printf.sprintf "dispatch/%d" i;
        src = Workloads.Advgen.dispatch_src ~handlers ~seed:r;
        args = [| 60; r land 1023 |];
      }
  | `Progen (n_helpers, depth) ->
      {
        uid = Printf.sprintf "progen/%d" i;
        src = Workloads.Progen.generate ~n_helpers ~depth ~seed:r ();
        args = [| 5; 3 |];
      }

let shuffle ~seed ~block a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = mix (mix seed 17) ((block * 100_000) + i) mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Blocks of [next_block], each shuffled by the seed, served one by one. *)
let blocks ~seed next_block =
  let b = ref (-1) and cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      incr b;
      cur := shuffle ~seed ~block:!b (next_block !b);
      pos := 0
    end;
    let p = !cur.(!pos) in
    incr pos;
    p

(* The generated suite: [suite_blocks] blocks of one shape rotation each,
   160 programs. *)
let suite_blocks = 20
let fresh_block b = Array.init (Array.length shapes) (fun i -> fresh ((b * Array.length shapes) + i))

(* The compile-job stream of a workload: seed-shuffled passes over the
   paper programs, with every [fresh_every]-th job taken from
   seed-shuffled blocks of the generated suite instead, pass after pass.
   The generated suite is fixed (its own seed): the run seed orders it,
   so the workload's figures do not swing with how hard a seed's programs
   happen to be, and every compile window of a whole number of passes
   holds the same programs, so windows differ only in how fast the host
   ran them. *)
let job_stream w ~seed =
  let paper = blocks ~seed (fun _ -> Lazy.force paper) in
  let fresh = blocks ~seed (fun b -> fresh_block (b mod suite_blocks)) in
  let j = ref 0 in
  fun () ->
    let k = !j in
    incr j;
    if is_fresh w k then fresh () else paper ()

(* ---- service requests ------------------------------------------------ *)

type request = {
  rid : int;  (** index in the run's request stream *)
  fn : string;
  ir : string;  (** post-inlining function IR as the client prints it *)
  wire : string;  (** the rendered compile message *)
}

let config = Dbds.Config.dbds

(* The service compiles post-inlining units: inline locally, then send
   each function (as [dbdsc --connect] does). *)
let functions_of src =
  let prog = Lang.Frontend.compile src in
  ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:prog ()) prog);
  List.filter_map
    (fun name ->
      Option.map (fun g -> (name, Ir.Printer.graph_to_string g)) (Ir.Program.find_function prog name))
    (Ir.Program.function_names prog)

let render_request ~fn ~ir =
  Service.Protocol.render (Service.Client.compile_msg ~config ~fn ~ir ())

(* Every post-inlining function of the paper programs: the warm set. *)
let warm_pool () =
  Array.of_list
    (List.concat_map (fun p -> functions_of p.src) (Array.to_list (Lazy.force paper)))

(* The request stream: every [fresh_every]-th request is a function of a
   generated program (a cold compile plus a store write, never repeated
   in a run); the rest draw uniformly by seed from the warm set (store
   reads).  Request programs come from their own index range of the
   generated suite, apart from the compile path's. *)
let request_stream w ~seed ~warm =
  let pending = Queue.create () and nprog = ref 0 and k = ref 0 in
  let rec next_fresh () =
    match Queue.take_opt pending with
    | Some f -> f
    | None ->
        let p = fresh (1_000_000 + !nprog) in
        incr nprog;
        List.iter (fun f -> Queue.add f pending) (functions_of p.src);
        next_fresh ()
  in
  fun () ->
    let rid = !k in
    incr k;
    let fresh = is_fresh w rid in
    let fn, ir = if fresh then next_fresh () else warm.(mix (mix seed 31) rid mod Array.length warm) in
    { rid; fn; ir; wire = render_request ~fn ~ir }

(* What the service must answer for a request: the canonical IR of an
   in-process compile of the same lone function (the broker's pipeline:
   parse the wire text, optimize without inlining). *)
let expected_reply ir =
  let g = Ir.Parse.parse_graph ir in
  let program = Ir.Program.of_graph g in
  let r = Dbds.Driver.optimize_program_report ~config ~inline:false ~jobs:1 program in
  if r.Dbds.Driver.rep_failures <> [] then None
  else Option.map Service.Digest.canonical_of_graph (Ir.Program.find_function program (Ir.Graph.name g))
