(** VM warm-start hooks — see the interface for the keying rationale. *)

let context = "vm-warm"

let key ~config pristine =
  Digest.of_request (Digest.request_of_graph ~context ~config pristine)

let hooks ~config store =
  let lookup ~fn ~pristine =
    try
      Dbds.Faults.armed config.Dbds.Config.fault_plan ~fn (fun () ->
          let digest = key ~config pristine in
          match Store.lookup store ~digest with
          | None -> None
          | Some (e, g) ->
              (* The memoized graph is shared; the engine installs and
                 executes bodies read-only, so handing it out is safe. *)
              Some (g, e.Store.ar_work))
    with _ -> None
  in
  let spill ~fn ~pristine ~optimized ~work =
    try
      Dbds.Faults.armed config.Dbds.Config.fault_plan ~fn (fun () ->
          Store.put store
            ~digest:(key ~config pristine)
            ~fn
            ~ir:(Digest.canonical_of_graph optimized)
            ~work)
    with _ -> ()
  in
  (lookup, spill)
