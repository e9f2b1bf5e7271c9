(* prpart: automated partitioning for partial reconfiguration designs.

   Subcommands: partition, profile, baselines, simulate, synth, batch,
   recover, devices, designs. A DESIGN argument is either the name of a
   built-in
   paper design (see `prpart designs`) or a path to an XML design
   description. *)

open Cmdliner

let load_design ?limits spec =
  match Prdesign.Design_library.find spec with
  | Some design -> Ok design
  | None ->
    if Sys.file_exists spec then
      try Ok (Prdesign.Design_xml.load_file ?limits spec) with
      | Prdesign.Design_xml.Malformed message ->
        Error (Printf.sprintf "%s: %s" spec message)
      | Xmllite.Xml.Parse_error { line; column; message } ->
        Error
          (Printf.sprintf "%s:%d:%d: %s" spec line column message)
      | (Prdesign.Design_xml.Too_large _ | Xmllite.Xml.Limit_exceeded _) as e
        ->
        Error
          (Printf.sprintf "%s: %s" spec
             (Option.value
                ~default:"input guard violation"
                (Prdesign.Design_xml.limit_message e)))
    else
      Error
        (Printf.sprintf
           "%s is neither a built-in design nor an existing file" spec)

let design_arg =
  let doc = "Built-in design name or path to an XML design description." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let budget_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | [ Some clb ] -> Ok (Fpga.Resource.make clb)
    | [ Some clb; Some bram ] -> Ok (Fpga.Resource.make ~bram clb)
    | [ Some clb; Some bram; Some dsp ] -> Ok (Fpga.Resource.make ~bram ~dsp clb)
    | _ -> Error (`Msg "expected CLB[,BRAM[,DSP]]")
  in
  let print ppf (r : Fpga.Resource.t) =
    Format.fprintf ppf "%d,%d,%d" r.clb r.bram r.dsp
  in
  Arg.conv (parse, print)

let budget_arg =
  let doc = "Resource budget as CLB[,BRAM[,DSP]]." in
  Arg.(value & opt (some budget_conv) None & info [ "budget" ] ~docv:"B" ~doc)

let device_arg =
  let doc = "Target a specific device from the catalogue (e.g. FX70T)." in
  Arg.(value & opt (some string) None & info [ "device" ] ~docv:"DEV" ~doc)

let freq_rule_arg =
  let doc =
    "Frequency-weight rule: $(b,support) (reproduces the paper's Table I) \
     or $(b,min-edge) (the paper's literal formula)."
  in
  Arg.(
    value
    & opt (enum [ ("support", Cluster.Agglomerative.Support);
                  ("min-edge", Cluster.Agglomerative.Min_edge) ])
        Cluster.Agglomerative.Support
    & info [ "freq-rule" ] ~docv:"RULE" ~doc)

let no_promote_arg =
  let doc = "Disable static promotion (pure region allocation)." in
  Arg.(value & flag & info [ "no-promote" ] ~doc)

let max_sets_arg =
  let doc = "Maximum candidate partition sets to explore." in
  Arg.(value & opt int 32 & info [ "max-sets" ] ~docv:"N" ~doc)

let restarts_arg =
  let doc = "Allocator restart budget." in
  Arg.(value & opt int 8 & info [ "restarts" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the candidate-set search (default: the \
     machine's recommended domain count). Results are bit-identical \
     for any value; $(b,--jobs 1) is the purely sequential path."
  in
  Arg.(
    value
    & opt int (Par.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let floorplan_arg =
  let doc = "Validate the result with the columnar floorplanner." in
  Arg.(value & flag & info [ "floorplan" ] ~doc)

(* Deadline / evaluation-budget flags shared by the solving verbs. *)
let deadline_arg =
  let doc =
    "Wall-clock deadline (milliseconds) for the partition search. When \
     it passes, the solver stops at the next loop boundary and returns \
     the best feasible scheme found so far — worst case the \
     single-region baseline — with a $(b,degraded) verdict in the \
     report. The search always terminates with a feasible answer."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_evals_arg =
  let doc =
    "Cap on cost evaluations for the partition search. Unlike \
     $(b,--deadline-ms) the cap is deterministic: the same design and \
     cap always produce the same scheme. Forces sequential solving \
     ($(b,--jobs 1))."
  in
  Arg.(value & opt (some int) None & info [ "max-evals" ] ~docv:"N" ~doc)

let ladder_arg =
  let doc =
    "Graceful-degradation ladder for the per-candidate-set allocation: \
     $(b,default) (exact, then anneal, then greedy, then single-region) \
     or a comma-separated list of rungs \
     $(i,KIND)[:$(i,EVALS)[:$(i,DEADLINE_MS)]] with kinds $(b,exact), \
     $(b,anneal), $(b,greedy), $(b,multilevel), $(b,single-region). Each \
     rung runs under its own budget; the first rung that completes wins, \
     and exhausting the whole ladder still yields the best feasible \
     scheme seen."
  in
  Arg.(value & opt (some string) None & info [ "ladder" ] ~docv:"SPEC" ~doc)

let strategy_arg =
  let doc =
    "Search backend for the partition engine: $(b,greedy) (the default \
     agglomerative + greedy pipeline), $(b,exact) (branch-and-bound), \
     $(b,anneal) (simulated annealing), or $(b,multilevel) (the \
     coarsen/partition/refine backend that scales to 50-500-module \
     designs, DESIGN.md section 12). Unknown names are rejected with \
     the valid set listed."
  in
  Arg.(value & opt string "greedy" & info [ "strategy" ] ~docv:"NAME" ~doc)

let strategy_spec s =
  match Prcore.Strategy.validate s with
  | Ok strategy -> Ok strategy
  | Error message -> Error ("--strategy: " ^ message)

(* Validate and combine the budget flags into a [Prguard.Budget.spec]
   (and the ladder string into a [Prguard.Ladder.t]). *)
let budget_spec ~deadline_ms ~max_evals =
  match (deadline_ms, max_evals) with
  | None, None -> Ok None
  | Some ms, _ when ms <= 0. || Float.is_nan ms ->
    Error "--deadline-ms must be a positive number of milliseconds"
  | _, Some n when n < 1 -> Error "--max-evals must be at least 1"
  | deadline_ms, max_evals ->
    Ok (Some (Prguard.Budget.spec ?deadline_ms ?max_evals ()))

let ladder_spec = function
  | None -> Ok None
  | Some "default" -> Ok (Some Prguard.Ladder.default)
  | Some s -> (
    match Prguard.Ladder.of_string s with
    | Ok l -> Ok (Some l)
    | Error message -> Error ("--ladder: " ^ message))

let guard_specs ~deadline_ms ~max_evals ~ladder =
  match budget_spec ~deadline_ms ~max_evals with
  | Error message -> Error message
  | Ok budget -> (
    match ladder_spec ladder with
    | Error message -> Error message
    | Ok ladder -> Ok (budget, ladder))

let placement_aware_arg =
  let doc =
    "Feed floorplan feasibility into the partition search: the target \
     device's column layout becomes an integer placeability penalty on \
     every explored scheme, steering the search away from allocations \
     the floorplanner cannot realise. Uses the named --device, or the \
     smallest catalogued device fitting --budget; with neither (auto \
     targeting) the first attempt runs unaware. Off by default — \
     without the flag every output is bit-identical to previous \
     releases."
  in
  Arg.(value & flag & info [ "placement-aware" ] ~doc)

(* The placement hook for the resolved CLI target: what the flow layer
   installs, rebuilt here so `partition` (which calls the engine
   directly) agrees with `flow` on the modelled device. *)
let placement_for_target ~placement_aware target =
  if not placement_aware then None
  else
    match (target : Prcore.Engine.target) with
    | Prcore.Engine.Fixed d -> Some (Flow.Tool_flow.placement_hook d)
    | Prcore.Engine.Budget b ->
      Option.map Flow.Tool_flow.placement_hook (Fpga.Device.smallest_fitting b)
    | Prcore.Engine.Auto -> None

let verify_arg =
  let doc =
    "Re-check the result with the independent oracle suite: the engine's \
     memo-vs-fresh self-check plus the Prverify re-derivations (covering, \
     conflicts, cost, budget, transitions). Fails with a diagnostic \
     report when any invariant is violated."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let save_scheme_arg =
  let doc = "Save the chosen scheme as XML to this path." in
  Arg.(value & opt (some string) None & info [ "save-scheme" ] ~docv:"FILE" ~doc)

(* Telemetry plumbing shared by the instrumented subcommands: --trace
   needs the full event stream (memory sink), --stats alone only needs
   the aggregates (null sink). *)
let trace_arg =
  let doc =
    "Write the telemetry event stream as JSON Lines to $(docv): one \
     object per line with seq/t/kind/name/attrs fields, span begin/end \
     pairs balanced."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc = "Print per-phase timing and counter tables after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let telemetry_handle ~trace ~stats =
  match (trace, stats) with
  | None, false -> Prtelemetry.null
  | Some _, _ -> Prtelemetry.create (Prtelemetry.Sink.memory ())
  | None, true -> Prtelemetry.create Prtelemetry.Sink.null

(* Flush, print the summary and/or export the trace. Returns a Cmdliner
   status so a failed trace write exits exactly like any other CLI
   error. *)
let finish_telemetry ~trace ~stats tele =
  if not (Prtelemetry.enabled tele) then `Ok ()
  else begin
    Prtelemetry.flush tele;
    if stats then print_string (Prtelemetry.summary tele);
    match trace with
    | None -> `Ok ()
    | Some path ->
      (match Prtelemetry.write_jsonl tele path with
       | Ok () ->
         Format.printf "telemetry trace written to %s@." path;
         `Ok ()
       | Error message -> `Error (false, message))
  end

let options ~freq_rule ~no_promote ~max_sets ~restarts =
  { Prcore.Engine.default_options with
    freq_rule;
    max_candidate_sets = max_sets;
    allocator =
      { Prcore.Allocator.max_restarts = restarts;
        promote_static = not no_promote } }

let target ~budget ~device =
  match (budget, device) with
  | Some _, Some _ -> Error "--budget and --device are mutually exclusive"
  | Some b, None -> Ok (Prcore.Engine.Budget b)
  | None, Some name ->
    (match Fpga.Device.find name with
     | Some d -> Ok (Prcore.Engine.Fixed d)
     | None -> Error (Printf.sprintf "unknown device %S" name))
  | None, None -> Ok Prcore.Engine.Auto

let run_floorplan ~telemetry scheme device =
  let layout = Floorplan.Layout.make device in
  let demands =
    Array.init
      (scheme.Prcore.Scheme.region_count + 1)
      (fun i ->
        if i < scheme.Prcore.Scheme.region_count then
          Floorplan.Placer.demand_of_resources
            (Prcore.Scheme.region_resources scheme i)
        else
          Floorplan.Placer.demand_of_resources
            (Prcore.Scheme.static_resources scheme))
  in
  let outcome = Floorplan.Placer.place ~telemetry layout demands in
  Format.printf "Floorplan on %a:@." Fpga.Device.pp device;
  Array.iteri
    (fun i rect ->
      let label =
        if i < scheme.Prcore.Scheme.region_count then
          Printf.sprintf "PRR%d" (i + 1)
        else "static"
      in
      match rect with
      | Some r ->
        Format.printf "  %-7s %a@." label Floorplan.Placer.pp_rect r
      | None -> Format.printf "  %-7s could not be placed@." label)
    outcome.placements;
  if outcome.failed <> [] then
    Format.printf
      "  -> floorplanning feedback: pick a larger device or re-partition@."

let partition_cmd =
  let run spec budget device freq_rule no_promote max_sets restarts strategy
      jobs deadline_ms max_evals ladder placement_aware verify floorplan
      save_scheme trace stats =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      (match target ~budget ~device with
       | Error message -> `Error (false, message)
       | Ok target ->
         match guard_specs ~deadline_ms ~max_evals ~ladder with
         | Error message -> `Error (false, message)
         | Ok (budget_spec, ladder) ->
         match strategy_spec strategy with
         | Error message -> `Error (false, message)
         | Ok strategy ->
         let options = options ~freq_rule ~no_promote ~max_sets ~restarts in
         let telemetry = telemetry_handle ~trace ~stats in
         let guard = Option.map Prguard.Budget.of_spec budget_spec in
         let placement = placement_for_target ~placement_aware target in
         (match
            Prcore.Engine.solve ~options ~telemetry ~strategy ~jobs ~verify
              ?budget:guard ?ladder ?placement ~target design
          with
          | Error message -> `Error (false, message)
          | Ok outcome ->
            Format.printf "Design: %s@." (Prdesign.Design.summary design);
            (match outcome.device with
             | Some d ->
               Format.printf "Device: %a (escalations %d)@." Fpga.Device.pp d
                 outcome.escalations
             | None ->
               Format.printf "Budget: %a@." Fpga.Resource.pp outcome.budget);
            Format.printf "%s" (Prcore.Scheme.describe outcome.scheme);
            Format.printf "%a@." Prcore.Cost.pp_evaluation outcome.evaluation;
            Format.printf
              "(%d base partitions, %d candidate sets explored)@."
              outcome.base_partitions outcome.candidate_sets;
            if outcome.degraded.Prguard.Budget.guarded then
              Format.printf "guard: %s@."
                (Prguard.Budget.render_verdict outcome.degraded);
            (match outcome.placement_penalty with
             | Some penalty ->
               Format.printf "placement penalty: %d%s@." penalty
                 (if penalty = 0 then " (estimator: placeable, no waste)"
                  else "")
             | None -> ());
            if stats then
              Format.printf "cost evaluations: %d@." outcome.cost_evaluations;
            let verified =
              if not verify then Ok ()
              else begin
                let diagnostics =
                  Prverify.Checker.check_outcome ~telemetry outcome
                in
                Format.printf "%s@."
                  (Prverify.Checker.summary_line diagnostics);
                if Prverify.Checker.ok diagnostics then Ok ()
                else
                  Error
                    ("the independent oracles rejected the outcome\n"
                    ^ Prverify.Checker.render_report diagnostics)
              end
            in
            match verified with
            | Error message -> `Error (false, message)
            | Ok () ->
            if floorplan then begin
              let device =
                match outcome.device with
                | Some d -> d
                | None ->
                  (match
                     Fpga.Device.smallest_fitting
                       outcome.evaluation.Prcore.Cost.used
                   with
                   | Some d -> d
                   | None -> Fpga.Device.find_exn "FX200T")
              in
              run_floorplan ~telemetry outcome.scheme device
            end;
            let saved =
              match save_scheme with
              | None -> Ok ()
              | Some path -> (
                try
                  Prcore.Scheme_xml.save_file path outcome.scheme;
                  Format.printf "scheme saved to %s@." path;
                  Ok ()
                with Sys_error message -> Error message)
            in
            (match saved with
             | Error message -> `Error (false, message)
             | Ok () -> finish_telemetry ~trace ~stats telemetry)))
  in
  let doc = "Partition a design, minimising total reconfiguration time." in
  Cmd.v
    (Cmd.info "partition" ~doc)
    Term.(
      ret
        (const run $ design_arg $ budget_arg $ device_arg $ freq_rule_arg
         $ no_promote_arg $ max_sets_arg $ restarts_arg $ strategy_arg
         $ jobs_arg $ deadline_arg $ max_evals_arg $ ladder_arg
         $ placement_aware_arg $ verify_arg $ floorplan_arg
         $ save_scheme_arg $ trace_arg $ stats_arg))

let metrics_arg =
  let doc =
    "Write the recorded counters, gauges and histograms to $(docv) in \
     Prometheus text exposition format (the same page the flow writes \
     as metrics.txt)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_cmd =
  let run spec budget device jobs metrics trace =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      (match target ~budget ~device with
       | Error message -> `Error (false, message)
       | Ok target ->
         (* Profiling always records the full event stream: the span
            tree needs Begin/End events, the depth tables and progress
            curve need a tracing handle. *)
         let telemetry = Prtelemetry.create (Prtelemetry.Sink.memory ()) in
         match Prcore.Engine.solve ~telemetry ~jobs ~target design with
         | Error message -> `Error (false, message)
         | Ok outcome ->
           Prtelemetry.flush telemetry;
           Format.printf "Design: %s@." (Prdesign.Design.summary design);
           (match outcome.device with
            | Some d -> Format.printf "Device: %a@." Fpga.Device.pp d
            | None ->
              Format.printf "Budget: %a@." Fpga.Resource.pp outcome.budget);
           let s = outcome.search in
           Format.printf
             "Best total frames: %d (%d cost evaluations; memo %d hits / \
              %d misses; exact %d states, %d pruned)@.@."
             outcome.evaluation.Prcore.Cost.total_frames
             outcome.cost_evaluations s.Prcore.Engine.memo_hits
             s.Prcore.Engine.memo_misses s.Prcore.Engine.exact_states
             s.Prcore.Engine.exact_pruned;
           print_string (Prtelemetry.Scope.report telemetry);
           print_string
             (Prtelemetry.Scope.render_progress s.Prcore.Engine.progress);
           let written =
             match metrics with
             | None -> Ok ()
             | Some path -> (
               try
                 let oc = open_out path in
                 output_string oc (Prtelemetry.exposition telemetry);
                 close_out oc;
                 Format.printf "metrics written to %s@." path;
                 Ok ()
               with Sys_error message -> Error message)
           in
           (match written with
            | Error message -> `Error (false, message)
            | Ok () -> (
              match trace with
              | None -> `Ok ()
              | Some path -> (
                match Prtelemetry.write_jsonl telemetry path with
                | Ok () ->
                  Format.printf "telemetry trace written to %s@." path;
                  `Ok ()
                | Error message -> `Error (false, message)))))
  in
  let doc =
    "Profile a partition run: solve the design with a tracing telemetry \
     handle, then print the hierarchical span tree (self/total time), \
     the hot-path ranking, deterministic span percentiles, the \
     depth-resolved memo hit rates and branch-and-bound prune counts, \
     the per-domain busy/idle table and the best-cost-over-evaluations \
     progress curve."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const run $ design_arg $ budget_arg $ device_arg $ jobs_arg
         $ metrics_arg $ trace_arg))

let baselines_cmd =
  let run spec trace stats =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      let telemetry = telemetry_handle ~trace ~stats in
      Format.printf "Design: %s@.@." (Prdesign.Design.summary design);
      let schemes =
        Prtelemetry.with_span telemetry "baselines.all"
          ~attrs:
            [ ("design", Prtelemetry.Json.String design.Prdesign.Design.name) ]
          (fun () -> Baselines.Schemes.all design)
      in
      List.iter
        (fun (l : Baselines.Schemes.labelled) ->
          Prtelemetry.incr telemetry "baselines.schemes";
          if Prtelemetry.tracing telemetry then
            Prtelemetry.point telemetry "baselines.scheme"
              ~attrs:
                [ ("label", Prtelemetry.Json.String l.label);
                  ( "total_frames",
                    Prtelemetry.Json.Int l.evaluation.Prcore.Cost.total_frames
                  );
                  ( "worst_frames",
                    Prtelemetry.Json.Int l.evaluation.Prcore.Cost.worst_frames
                  ) ];
          Format.printf "== %s ==@.%s%a@.@." l.label
            (Prcore.Scheme.describe l.scheme)
            Prcore.Cost.pp_evaluation l.evaluation)
        schemes;
      finish_telemetry ~trace ~stats telemetry
  in
  let doc = "Evaluate the static, single-region and modular schemes." in
  Cmd.v
    (Cmd.info "baselines" ~doc)
    Term.(ret (const run $ design_arg $ trace_arg $ stats_arg))

(* Resolve a --safe-config value: a configuration name or a numeric
   index. *)
let resolve_config design spec =
  let configs = Prdesign.Design.configuration_count design in
  let by_name =
    let rec search c =
      if c >= configs then None
      else if
        design.Prdesign.Design.configurations.(c)
          .Prdesign.Configuration.name = spec
      then Some c
      else search (c + 1)
    in
    search 0
  in
  match by_name with
  | Some c -> Ok c
  | None -> (
    match int_of_string_opt spec with
    | Some c when c >= 0 && c < configs -> Ok c
    | Some c ->
      Error
        (Printf.sprintf "configuration index %d out of range [0, %d)" c
           configs)
    | None -> Error (Printf.sprintf "unknown configuration %S" spec))

let fault_rate_arg =
  let doc =
    "Inject faults: per-operation probability (in [0,1]) of each fault \
     kind (fetch timeout, corrupt bitstream, ICAP CRC error, SEU upset, \
     device busy) on the operations it applies to. The walk then fetches \
     bitstreams from DDR-class memory and prints the fetch and \
     reliability reports; the other $(b,--fault-*) flags refine it. \
     Without it the walk replays fault-free."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "fault-rate" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Fault-injector RNG seed (reports are reproducible per seed)." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"S" ~doc)

let fault_policy_arg =
  let doc =
    "Recovery policy once a region load exhausts its retries: \
     $(b,retry) (retry then fail the run), $(b,fallback) (degrade to \
     the safe configuration), $(b,skip) (drop the adaptation step), or \
     $(b,abort) (fail on the first fault, no retries)."
  in
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun p -> (Prfault.Recovery.policy_name p, p))
              Prfault.Recovery.all_policies))
        Prfault.Recovery.Fallback_safe_config
    & info [ "fault-policy" ] ~docv:"POLICY" ~doc)

let safe_config_arg =
  let doc =
    "Safe configuration (name or index) the $(b,fallback) policy \
     degrades to; defaults to the walk's initial configuration."
  in
  Arg.(value & opt (some string) None & info [ "safe-config" ] ~docv:"CONF" ~doc)

let simulate_cmd =
  let steps_arg =
    Arg.(value & opt int 1000 & info [ "steps" ] ~docv:"N"
           ~doc:"Length of the random adaptation walk.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Walk RNG seed.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a recorded trace instead of a random walk.")
  in
  let save_trace_arg =
    Arg.(value & opt (some string) None & info [ "save-trace" ] ~docv:"FILE"
           ~doc:"Record the walk as a trace file for later replay.")
  in
  let run spec budget device jobs steps seed replay save_trace fault_rate
      fault_seed fault_policy safe_config trace stats =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      (match target ~budget ~device with
       | Error message -> `Error (false, message)
       | Ok target ->
         let telemetry = telemetry_handle ~trace ~stats in
         (match Prcore.Engine.solve ~telemetry ~jobs ~target design with
          | Error message -> `Error (false, message)
          | Ok outcome ->
            let configs = Prdesign.Design.configuration_count design in
            if configs < 2 then
              `Error (false, "need at least two configurations to simulate")
            else begin
              let trace_result =
                match replay with
                | Some path -> Runtime.Trace.load_file design path
                | None ->
                  let rng = Synth.Rng.make seed in
                  Ok
                    (Runtime.Trace.record design ~initial:0
                       ~sequence:
                         (Runtime.Manager.random_walk
                            ~rand:(fun n -> Synth.Rng.int rng n)
                            ~configs ~steps ~initial:0))
              in
              match trace_result with
              | Error message -> `Error (false, message)
              | Ok walk ->
                let save () =
                  match save_trace with
                  | None -> Ok ()
                  | Some path -> (
                    try
                      Runtime.Trace.save_file design path walk;
                      Format.printf "trace saved to %s@." path;
                      Ok ()
                    with Sys_error message -> Error message)
                in
                let print_stats (stats' : Runtime.Manager.stats) =
                  Format.printf "%s" (Prcore.Scheme.describe outcome.scheme);
                  Format.printf "%a@." Runtime.Manager.pp_stats stats';
                  Array.iteri
                    (fun r loads ->
                      Format.printf "  PRR%d reconfigured %d times@." (r + 1)
                        loads)
                    stats'.Runtime.Manager.region_loads
                in
                let simulated =
                  match fault_rate with
                  | None -> (
                    (* No --fault-rate: an inactive injector, no fetch
                       model, so the replay cannot fail. *)
                    match
                      Runtime.Trace.simulate ~telemetry outcome.scheme walk
                    with
                    | Ok o ->
                      print_stats o.Runtime.Resilient.stats;
                      Ok ()
                    | Error f -> Error (Runtime.Resilient.render_failure f))
                  | Some rate
                    when rate < 0. || rate > 1. || Float.is_nan rate ->
                    Error "--fault-rate must be in [0, 1]"
                  | Some rate -> (
                    let safe_result =
                      match safe_config with
                      | None -> Ok None
                      | Some spec -> (
                        match resolve_config design spec with
                        | Ok c -> Ok (Some c)
                        | Error message ->
                          Error ("--safe-config: " ^ message))
                    in
                    match safe_result with
                    | Error message -> Error message
                    | Ok safe_config ->
                      let fault =
                        { Runtime.Resilient.spec =
                            Prfault.Injector.uniform ~seed:fault_seed ~rate ();
                          policy = fault_policy;
                          retry = Prfault.Recovery.default_retry;
                          safe_config }
                      in
                      (match
                         Runtime.Trace.simulate ~telemetry
                           ~memory:Runtime.Fetch.ddr ~fault outcome.scheme
                           walk
                       with
                       | Ok o ->
                         print_stats o.Runtime.Resilient.stats;
                         (match o.Runtime.Resilient.fetch with
                          | Some report ->
                            Format.printf "%s@."
                              (Runtime.Fetch.render report)
                          | None -> ());
                         print_string
                           (Prfault.Reliability.render
                              o.Runtime.Resilient.reliability);
                         Ok ()
                       | Error f ->
                         Error
                           (Runtime.Resilient.render_failure f
                           ^ "\n"
                           ^ Prfault.Reliability.render
                               f.Runtime.Resilient.reliability)))
                in
                (match simulated with
                 | Error message -> `Error (false, message)
                 | Ok () -> (
                   match save () with
                   | Error message -> `Error (false, message)
                   | Ok () -> finish_telemetry ~trace ~stats telemetry))
            end))
  in
  let doc =
    "Partition a design and replay an adaptation walk (random or recorded) \
     on the reconfiguration simulator: an idle region keeps its bitstream, \
     so a step reloads only the regions whose resident must change."
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ design_arg $ budget_arg $ device_arg $ jobs_arg
         $ steps_arg $ seed_arg $ replay_arg $ save_trace_arg $ fault_rate_arg
         $ fault_seed_arg $ fault_policy_arg $ safe_config_arg $ trace_arg
         $ stats_arg))

let synth_cmd =
  let count_arg =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"N"
           ~doc:"Number of designs to generate.")
  in
  let seed_arg =
    Arg.(value & opt int 2013 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write each design as XML into this directory.")
  in
  let run count seed out =
    let designs = Synth.Generator.batch ~seed ~count () in
    match out with
    | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (_, d) ->
            Prdesign.Design_xml.save_file
              (Filename.concat dir (d.Prdesign.Design.name ^ ".xml"))
              d)
          designs;
        Format.printf "wrote %d designs to %s@." count dir;
        `Ok ()
      with Sys_error message -> `Error (false, message))
    | None ->
      List.iter
        (fun (cls, d) ->
          Format.printf "%-12s %s@."
            (Synth.Generator.class_name cls)
            (Prdesign.Design.summary d))
        designs;
      `Ok ()
  in
  let doc = "Generate synthetic adaptive designs (paper Section V recipe)." in
  Cmd.v
    (Cmd.info "synth" ~doc)
    Term.(ret (const run $ count_arg $ seed_arg $ out_arg))

let lint_cmd =
  let run spec =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      Format.printf "Design: %s@." (Prdesign.Design.summary design);
      print_string (Prdesign.Lint.render (Prdesign.Lint.check design));
      `Ok ()
  in
  let doc = "Lint a design description for partitioning pitfalls." in
  Cmd.v (Cmd.info "lint" ~doc) Term.(ret (const run $ design_arg))

let flow_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write wrappers, bitstreams and the report into DIR.")
  in
  let run spec budget device strategy jobs deadline_ms max_evals ladder
      placement_aware verify out trace stats =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      (match target ~budget ~device with
       | Error message -> `Error (false, message)
       | Ok target ->
         match guard_specs ~deadline_ms ~max_evals ~ladder with
         | Error message -> `Error (false, message)
         | Ok (budget_spec, ladder) ->
         match strategy_spec strategy with
         | Error message -> `Error (false, message)
         | Ok strategy ->
         let telemetry = telemetry_handle ~trace ~stats in
         let options =
           { Flow.Tool_flow.default_options with
             strategy;
             telemetry;
             jobs;
             verify;
             placement_aware;
             budget = budget_spec;
             ladder }
         in
         (match Flow.Tool_flow.run ~options ~target design with
          | Error message -> `Error (false, message)
          | Ok report ->
            print_string (Flow.Tool_flow.render_summary report);
            let verified =
              match report.Flow.Tool_flow.diagnostics with
              | Some diagnostics when not (Prverify.Checker.ok diagnostics) ->
                Error "verification failed (see the report above)"
              | Some _ | None -> Ok ()
            in
            match verified with
            | Error message -> `Error (false, message)
            | Ok () ->
            let written =
              match out with
              | None -> Ok ()
              | Some dir -> (
                match Flow.Tool_flow.write_outputs ~dir report with
                | Ok written ->
                  Format.printf "wrote %d files to %s@." (List.length written)
                    dir;
                  Ok ()
                | Error message -> Error message)
            in
            (match written with
             | Error message -> `Error (false, message)
             | Ok () ->
               (* The summary already embeds the telemetry tables when
                  live; only the trace export remains. *)
               finish_telemetry ~trace ~stats:false telemetry)))
  in
  let doc =
    "Run the whole tool flow: partition, wrap, floorplan (with feedback), \
     generate bitstreams."
  in
  Cmd.v
    (Cmd.info "flow" ~doc)
    Term.(
      ret
        (const run $ design_arg $ budget_arg $ device_arg $ strategy_arg
         $ jobs_arg $ deadline_arg $ max_evals_arg $ ladder_arg
         $ placement_aware_arg $ verify_arg $ out_arg $ trace_arg
         $ stats_arg))

(* Minimal JSON string escaping for the batch results stream. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One result line of the batch stream. *)
type batch_result = {
  br_spec : string;  (** The manifest entry as written. *)
  br_outcome : (Flow.Tool_flow.report, string) result;
  br_elapsed_ms : float;
}

let batch_result_jsonl r =
  match r.br_outcome with
  | Error message ->
    Printf.sprintf
      "{\"design\":\"%s\",\"status\":\"error\",\"error\":\"%s\",\"elapsed_ms\":%.1f}"
      (json_escape r.br_spec) (json_escape message) r.br_elapsed_ms
  | Ok report ->
    let outcome = report.Flow.Tool_flow.outcome in
    let scheme = outcome.Prcore.Engine.scheme in
    let verdict = outcome.Prcore.Engine.degraded in
    Printf.sprintf
      "{\"design\":\"%s\",\"status\":\"ok\",\"device\":\"%s\",\"regions\":%d,\"total_frames\":%d,\"worst_frames\":%d,\"degraded\":%b,\"reason\":\"%s\",\"elapsed_ms\":%.1f}"
      (json_escape r.br_spec)
      (json_escape report.Flow.Tool_flow.device.Fpga.Device.short)
      scheme.Prcore.Scheme.region_count
      outcome.Prcore.Engine.evaluation.Prcore.Cost.total_frames
      outcome.Prcore.Engine.evaluation.Prcore.Cost.worst_frames
      verdict.Prguard.Budget.degraded
      (Prguard.Budget.reason_name verdict.Prguard.Budget.reason)
      r.br_elapsed_ms

(* Filesystem-safe directory name for one manifest entry. *)
let batch_entry_dirname spec =
  let base = Filename.remove_extension (Filename.basename spec) in
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> c
        | _ -> '_')
      base
  in
  if mapped = "" then "_" else mapped

let batch_cmd =
  let manifest_arg =
    let doc =
      "Manifest file: one design per line (a built-in name or a path to \
       an XML description, resolved relative to the manifest's \
       directory), with blank lines and $(b,#) comments ignored."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write each design's artefacts into DIR/<design>/ \
                 (crash-safe, with checksum sidecars).")
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Also write the JSON Lines results stream to FILE \
                 (atomically, at the end of the run).")
  in
  let run manifest budget device strategy jobs deadline_ms max_evals ladder
      out jsonl =
    if not (Sys.file_exists manifest) then
      `Error (false, Printf.sprintf "manifest %s does not exist" manifest)
    else
      match target ~budget ~device with
      | Error message -> `Error (false, message)
      | Ok target -> (
        match guard_specs ~deadline_ms ~max_evals ~ladder with
        | Error message -> `Error (false, message)
        | Ok (budget_spec, ladder) -> (
          match strategy_spec strategy with
          | Error message -> `Error (false, message)
          | Ok strategy -> (
          begin
            let manifest_dir = Filename.dirname manifest in
            let resolve spec =
              (* A relative path that does not exist from the CWD is
                 retried relative to the manifest, so manifests are
                 position-independent. *)
              if
                Prdesign.Design_library.find spec <> None
                || Sys.file_exists spec
                || Filename.is_relative spec = false
              then spec
              else
                let relative = Filename.concat manifest_dir spec in
                if Sys.file_exists relative then relative else spec
            in
            (* Per-design isolation: load, solve and write under an
               exception barrier so one poisoned input is reported and
               skipped while the rest of the batch completes. *)
            let run_one spec =
              let started = Unix.gettimeofday () in
              let outcome =
                try
                  match
                    load_design ~limits:Prdesign.Design_xml.default_limits
                      (resolve spec)
                  with
                  | Error message -> Error message
                  | Ok design -> (
                    let options =
                      { Flow.Tool_flow.default_options with
                        strategy;
                        jobs;
                        budget = budget_spec;
                        ladder }
                    in
                    match Flow.Tool_flow.run ~options ~target design with
                    | Error message -> Error message
                    | Ok report -> (
                      match out with
                      | None -> Ok report
                      | Some dir -> (
                        let subdir =
                          Filename.concat dir (batch_entry_dirname spec)
                        in
                        match
                          Flow.Tool_flow.write_outputs ~dir:subdir report
                        with
                        | Ok _ -> Ok report
                        | Error message -> Error message)))
                with e ->
                  (* The isolation barrier: a crash in any stage becomes
                     a reported per-design failure, not a dead batch. *)
                  Error
                    (Option.value
                       (Prdesign.Design_xml.limit_message e)
                       ~default:("uncaught exception: " ^ Printexc.to_string e))
              in
              { br_spec = spec;
                br_outcome = outcome;
                br_elapsed_ms = 1e3 *. (Unix.gettimeofday () -. started) }
            in
            (* The manifest is streamed line-by-line through the bounded
               serve reader (never loaded whole): a multi-million-line
               manifest costs one line of memory at a time, and an
               overlong line or an accidental binary degrades into a
               typed error instead of an OOM. Each entry is solved and
               reported as soon as it is read. *)
            let jsonl_buf =
              Option.map (fun _ -> Buffer.create 4096) jsonl
            in
            let ok_count = ref 0 and fail_count = ref 0 in
            let process spec =
              let r = run_one spec in
              let line = batch_result_jsonl r in
              print_endline line;
              Option.iter
                (fun buf ->
                  Buffer.add_string buf line;
                  Buffer.add_char buf '\n')
                jsonl_buf;
              if Result.is_error r.br_outcome then incr fail_count
              else incr ok_count
            in
            let streamed =
              In_channel.with_open_text manifest (fun ic ->
                  let reader =
                    Prserve.Reader.of_channel ~max_line_bytes:4096 ic
                  in
                  Prserve.Reader.fold_lines reader ~init:() (fun ~line:_ () raw ->
                      let entry = String.trim raw in
                      if entry <> "" && entry.[0] <> '#' then process entry))
            in
            match streamed with
            | Error e ->
              `Error
                ( false,
                  Printf.sprintf "manifest %s: %s" manifest
                    (Prserve.Reader.error_message e) )
            | Ok () -> (
              let total = !ok_count + !fail_count in
              if total = 0 then
                `Error
                  (false, Printf.sprintf "manifest %s lists no designs" manifest)
              else
                let summary =
                  Printf.sprintf "batch: %d ok, %d failed (of %d)" !ok_count
                    !fail_count total
                in
                let jsonl_written =
                  match (jsonl, jsonl_buf) with
                  | Some path, Some buf ->
                    Prguard.Atomic_io.write ~checksum:Bitgen.Crc32.hex_digest
                      ~path (Buffer.contents buf)
                  | _ -> Ok ()
                in
                match jsonl_written with
                | Error message -> `Error (false, message)
                | Ok () ->
                  if !fail_count = 0 then begin
                    Format.eprintf "%s@." summary;
                    `Ok ()
                  end
                  else
                    (* A partially failed batch exits non-zero but only
                       after every design had its turn. *)
                    `Error (false, summary))
          end)))
  in
  let doc =
    "Partition a manifest of designs through the full tool flow, one \
     JSON result line per design. A design that fails to load or solve \
     is reported and skipped — the rest of the batch still runs — and \
     the exit status reflects any partial failure."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      ret
        (const run $ manifest_arg $ budget_arg $ device_arg $ strategy_arg
         $ jobs_arg $ deadline_arg $ max_evals_arg $ ladder_arg $ out_arg
         $ jsonl_arg))

let recover_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Output directory to scan (non-recursively).")
  in
  let no_quarantine_arg =
    Arg.(value & flag
         & info [ "no-quarantine" ]
             ~doc:"Report issues without deleting stale temporaries or \
                   moving corrupt files into DIR/.quarantine/.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero when any torn or corrupt artefact was \
                   found (after quarantining it, unless \
                   $(b,--no-quarantine)).")
  in
  let run dir no_quarantine strict =
    match
      Prguard.recover ~checksum:Bitgen.Crc32.hex_digest
        ~quarantine:(not no_quarantine) ~dir ()
    with
    | Error message -> `Error (false, message)
    | Ok recovery ->
      print_string (Prguard.Atomic_io.render_recovery recovery);
      if strict && not (Prguard.Atomic_io.clean recovery) then
        `Error (false, "torn or corrupt artefacts were found")
      else `Ok ()
  in
  let doc =
    "Scan a prpart output directory for crash artefacts: stale \
     temporary files from interrupted writes are deleted, and files \
     whose checksum sidecar does not match are quarantined. Run after a \
     crash or power loss before trusting the artefacts."
  in
  Cmd.v
    (Cmd.info "recover" ~doc)
    Term.(ret (const run $ dir_arg $ no_quarantine_arg $ strict_arg))

let check_cmd =
  let run spec budget device jobs trace stats =
    match load_design spec with
    | Error message -> `Error (false, message)
    | Ok design ->
      (match target ~budget ~device with
       | Error message -> `Error (false, message)
       | Ok target ->
         let telemetry = telemetry_handle ~trace ~stats in
         Format.printf "Design: %s@." (Prdesign.Design.summary design);
         (* Stage 1: the design description alone, so a malformed design
            is reported even when it cannot be partitioned at all. *)
         let design_diags = Prverify.Checker.check_design ~telemetry design in
         if not (Prverify.Checker.ok design_diags) then begin
           print_string (Prverify.Checker.render_report design_diags);
           `Error
             (false, "design description fails the well-formedness oracle")
         end
         else begin
           (* Stage 2: implement it end to end (engine self-check armed)
              and run the full oracle suite over every artefact. *)
           let options =
             { Flow.Tool_flow.default_options with
               telemetry;
               jobs;
               verify = true }
           in
           match Flow.Tool_flow.run ~options ~target design with
           | Error message -> `Error (false, message)
           | Ok report ->
             let diagnostics =
               Option.value ~default:[] report.Flow.Tool_flow.diagnostics
             in
             Format.printf "device: %s, %d regions, %d total frames@."
               report.Flow.Tool_flow.device.Fpga.Device.name
               report.Flow.Tool_flow.outcome.Prcore.Engine.scheme
                 .Prcore.Scheme.region_count
               report.Flow.Tool_flow.outcome.Prcore.Engine.evaluation
                 .Prcore.Cost.total_frames;
             print_string (Prverify.Checker.render_report diagnostics);
             if not (Prverify.Checker.ok diagnostics) then
               `Error (false, "verification failed")
             else finish_telemetry ~trace ~stats telemetry
         end)
  in
  let doc =
    "Verify a design end to end with the independent oracle suite: design \
     well-formedness, covering and conflict-freedom, from-scratch cost \
     re-derivation, floorplan geometry, bitstream round-trips and \
     transition reachability. Exits non-zero on any violation."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ design_arg $ budget_arg $ device_arg $ jobs_arg
         $ trace_arg $ stats_arg))

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
           ~doc:"Number of random designs to draw.")
  in
  let seed_arg =
    Arg.(value & opt int 2013 & info [ "seed" ] ~docv:"S"
           ~doc:"Generator seed (runs are reproducible per seed).")
  in
  let kills_arg =
    Arg.(value & flag
         & info [ "kills" ]
             ~doc:
               "Also run the seeded mutation-kill matrix: one corruption \
                per oracle, each of which must fire exactly its own \
                diagnostic code.")
  in
  let run count seed jobs kills =
    let summary = Prverify.Fuzz.run ~count ~seed ~jobs () in
    print_string (Prverify.Fuzz.render_summary summary);
    let kills_ok =
      if not kills then true
      else begin
        let matrix = Prverify.Fuzz.mutation_kills () in
        print_string (Prverify.Fuzz.render_kills matrix);
        Prverify.Fuzz.all_killed matrix
      end
    in
    if summary.Prverify.Fuzz.failures = [] && kills_ok then `Ok ()
    else `Error (false, "differential fuzzing found divergences")
  in
  let doc =
    "Differential-fuzz the pipeline over random synthetic designs: \
     sequential vs parallel engine, memoised vs fresh cost evaluation, \
     reported evaluation vs the independent oracle re-derivation, and \
     check-after-solve."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(ret (const run $ count_arg $ seed_arg $ jobs_arg $ kills_arg))

let devices_cmd =
  let run () =
    List.iter
      (fun (d : Fpga.Device.t) ->
        let r = Fpga.Device.resources d in
        Format.printf "%-10s %-4s rows=%2d  clb=%6d bram=%4d dsp=%4d  (%d frames)@."
          d.name
          (Fpga.Device.family_name d.family)
          d.rows r.clb r.bram r.dsp
          (Fpga.Device.total_frames d))
      Fpga.Device.catalogue;
    `Ok ()
  in
  let doc = "List the modelled Virtex-5 device catalogue." in
  Cmd.v (Cmd.info "devices" ~doc) Term.(ret (const run $ const ()))

let designs_cmd =
  let run () =
    List.iter
      (fun (name, d) ->
        Format.printf "%-20s %s@." name (Prdesign.Design.summary d))
      Prdesign.Design_library.all;
    `Ok ()
  in
  let doc = "List the built-in paper designs." in
  Cmd.v (Cmd.info "designs" ~doc) Term.(ret (const run $ const ()))

let serve_cmd =
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(
      value & opt string "prserve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc =
      "Listen on 127.0.0.1:$(docv) (TCP) instead of the Unix socket. The \
       protocol is unauthenticated, so only the loopback interface is \
       ever bound."
    in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let no_deadline_arg =
    let doc =
      "Disable the per-job deadline entirely (default: 2000 ms per job). \
       Overload shedding still imposes deadlines at elevated shed levels."
    in
    Arg.(value & flag & info [ "no-deadline" ] ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persist the result cache in $(docv) (crash-safe writes with CRC32 \
       sidecars; corrupt entries are quarantined and re-solved on \
       restart). Without it the cache is memory-only."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let cache_capacity_arg =
    let doc = "LRU bound on cached results." in
    Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Admission queue bound (typed REJECT when full)." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let client_cap_arg =
    let doc = "Per-client in-flight job cap (round-robin fairness)." in
    Arg.(value & opt int 16 & info [ "client-cap" ] ~docv:"N" ~doc)
  in
  let shed_arg =
    let doc =
      "Queue-wait EWMA thresholds (ms, comma-separated, non-decreasing) \
       for shed levels 1..n: past each threshold new jobs are admitted \
       with a tighter budget/ladder rung."
    in
    Arg.(
      value & opt string "50,200,1000" & info [ "shed-thresholds" ] ~docv:"MS,MS,MS" ~doc)
  in
  let parse_thresholds s =
    let parts = String.split_on_char ',' (String.trim s) in
    let floats = List.map (fun p -> float_of_string_opt (String.trim p)) parts in
    if List.exists Option.is_none floats then
      Error "--shed-thresholds: expected comma-separated numbers"
    else
      let values = List.map Option.get floats in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      if not (non_decreasing values) then
        Error "--shed-thresholds: thresholds must be non-decreasing"
      else Ok (Array.of_list values)
  in
  let shared_cache_arg =
    let doc =
      "Share the persistent result cache in $(docv) with peer replicas \
       (implies $(b,--cache-dir) $(docv)): scans and evictions \
       coordinate through a heartbeat-stamped lockfile with stale-lock \
       takeover, and a miss re-reads entries peers have written."
    in
    Arg.(
      value & opt (some string) None
      & info [ "shared-cache" ] ~docv:"DIR" ~doc)
  in
  let chaos_arg =
    let doc =
      "Seeded fault injection for the chaos harness, e.g. \
       $(b,seed=42,kill-solve@0,conn-reset=0.05,slow-ms=120). Kinds: \
       kill-solve, kill-cache-write, torn-cache-write, conn-reset, \
       slow-reply; $(i,kind)@$(i,N) fires at the Nth operation of its \
       point, $(i,kind)=$(i,P) fires with probability P; max-faults=N \
       bounds the total. Never use in production."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Hang up connections whose peer stays silent for $(docv) seconds \
       mid-line (slowloris defence); the peer gets a typed \
       $(b,REJECT idle-timeout) first."
    in
    Arg.(
      value & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let quota_arg =
    let doc =
      "Per-client in-flight quota as $(i,CLIENT)=$(i,N), repeatable. \
       The effective cap for a listed client is the minimum of its \
       quota and $(b,--client-cap); refusals reject with code \
       $(b,quota)."
    in
    Arg.(value & opt_all string [] & info [ "quota" ] ~docv:"CLIENT=N" ~doc)
  in
  let parse_quotas specs =
    let parse spec =
      match String.index_opt spec '=' with
      | Some i when i > 0 -> (
        let client = String.sub spec 0 i in
        let n = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (client, n)
        | Some _ | None ->
          Error (Printf.sprintf "--quota %s: N must be a positive integer" spec))
      | Some _ | None ->
        Error (Printf.sprintf "--quota %s: expected CLIENT=N" spec)
    in
    List.fold_left
      (fun acc spec ->
        match (acc, parse spec) with
        | Error _, _ -> acc
        | Ok _, Error e -> Error e
        | Ok qs, Ok q -> Ok (q :: qs))
      (Ok []) specs
    |> Result.map List.rev
  in
  let run budget device strategy jobs deadline_ms no_deadline ladder socket
      port cache_dir cache_capacity queue client_cap shed shared_cache
      chaos idle_timeout quota_specs metrics stats =
    match target ~budget ~device with
    | Error message -> `Error (false, message)
    | Ok target -> (
      match strategy_spec strategy with
      | Error message -> `Error (false, message)
      | Ok strategy -> (
      match ladder_spec ladder with
      | Error message -> `Error (false, message)
      | Ok ladder -> (
        match deadline_ms with
        | Some ms when ms <= 0. || Float.is_nan ms ->
          `Error (false, "--deadline-ms must be a positive number of milliseconds")
        | _ -> (
          match parse_thresholds shed with
          | Error message -> `Error (false, message)
          | Ok shed_thresholds_ms -> (
            match parse_quotas quota_specs with
            | Error message -> `Error (false, message)
            | Ok quotas -> (
            match
              match (cache_dir, shared_cache) with
              | Some _, Some _ ->
                Error "--cache-dir and --shared-cache are mutually exclusive"
              | None, Some d -> Ok (Some d, true)
              | dir, None -> Ok (dir, false)
            with
            | Error message -> `Error (false, message)
            | Ok (cache_dir, cache_shared) -> (
            match
              match chaos with
              | None -> Ok None
              | Some spec -> Result.map Option.some (Prserve.Chaos.of_string spec)
            with
            | Error message -> `Error (false, "--chaos: " ^ message)
            | Ok chaos -> (
            match idle_timeout with
            | Some s when s <= 0. || Float.is_nan s ->
              `Error (false, "--idle-timeout must be a positive number of seconds")
            | _ -> (
            let deadline_ms =
              if no_deadline then None
              else Some (Option.value ~default:2000. deadline_ms)
            in
            let telemetry = Prtelemetry.create Prtelemetry.Sink.null in
            let config =
              { (Prserve.Server.default_config ~telemetry ()) with
                target;
                strategy;
                ladder;
                deadline_ms;
                jobs;
                queue_capacity = queue;
                client_cap;
                quotas;
                cache_capacity;
                cache_dir;
                cache_shared;
                shed_thresholds_ms;
                chaos }
            in
            match Prserve.Server.create config with
            | Error message -> `Error (false, message)
            | Ok server -> (
              (match Prserve.Cache.recovery (Prserve.Server.cache server) with
               | Some r when not (Prguard.Atomic_io.clean r) ->
                 Format.eprintf "%s@." (Prguard.Atomic_io.render_recovery r)
               | _ -> ());
              let address =
                match port with
                | Some p -> Prserve.Endpoint.Tcp p
                | None -> Prserve.Endpoint.Unix_path socket
              in
              match Prserve.Endpoint.listen address with
              | Error message ->
                Prserve.Server.drain server;
                `Error (false, message)
              | Ok endpoint ->
                let stop _ = Prserve.Server.request_shutdown server in
                Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
                Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
                Format.printf "prserve: listening on %s (pid %d)@."
                  (Prserve.Endpoint.address_to_string address)
                  (Unix.getpid ());
                Format.print_flush ();
                Prserve.Endpoint.serve_loop ?idle_timeout_s:idle_timeout
                  endpoint server;
                Prserve.Endpoint.close endpoint;
                Prserve.Server.drain server;
                Prtelemetry.flush telemetry;
                if stats then print_string (Prtelemetry.summary telemetry);
                let written =
                  match metrics with
                  | None -> Ok ()
                  | Some path ->
                    Prguard.Atomic_io.write ~checksum:Bitgen.Crc32.hex_digest
                      ~path
                      (Prtelemetry.exposition telemetry)
                in
                (match written with
                 | Error message -> `Error (false, message)
                 | Ok () ->
                   Format.printf "prserve: drained after %d requests@."
                     (Prserve.Server.requests server);
                   `Ok ())))))))))))
  in
  let doc =
    "Run the partitioning daemon: a line-delimited SOLVE/STATUS/HEALTH/\
     SHUTDOWN protocol over a Unix or loopback-TCP socket, with a \
     crash-safe content-addressed result cache, bounded fair admission, \
     per-job budgets and overload shedding. SIGINT/SIGTERM drain \
     gracefully. See DESIGN.md §11."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ budget_arg $ device_arg $ strategy_arg $ jobs_arg
         $ deadline_arg $ no_deadline_arg $ ladder_arg $ socket_arg
         $ port_arg $ cache_dir_arg $ cache_capacity_arg $ queue_arg
         $ client_cap_arg $ shed_arg $ shared_cache_arg $ chaos_arg
         $ idle_timeout_arg $ quota_arg $ metrics_arg $ stats_arg))

let fleet_cmd =
  let replicas_arg =
    let doc = "Number of replicas to supervise." in
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let socket_prefix_arg =
    let doc =
      "Unix-socket path prefix; replica $(i,i) listens on \
       $(docv)-$(i,i).sock."
    in
    Arg.(
      value & opt string "prserve"
      & info [ "socket-prefix" ] ~docv:"PATH" ~doc)
  in
  let shared_cache_arg =
    let doc =
      "Shared persistent cache directory passed to every replica \
       ($(b,serve --shared-cache)): one replica's solves warm the \
       others."
    in
    Arg.(
      value & opt (some string) None
      & info [ "shared-cache" ] ~docv:"DIR" ~doc)
  in
  let chaos_arg =
    let doc =
      "Chaos spec forwarded to every replica's initial incarnation \
       ($(b,serve --chaos)); restarted incarnations run clean, so kill \
       schedules terminate by construction."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let restart_limit_arg =
    let doc = "Restarts allowed per replica before giving up." in
    Arg.(value & opt int 5 & info [ "restart-limit" ] ~docv:"N" ~doc)
  in
  let fleet_no_deadline_arg =
    let doc = "Forward $(b,--no-deadline) to every replica." in
    Arg.(value & flag & info [ "no-deadline" ] ~doc)
  in
  let idle_timeout_arg =
    let doc = "Per-replica $(b,--idle-timeout) (seconds)." in
    Arg.(
      value & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run device budget_opt strategy jobs no_deadline replicas socket_prefix
      shared_cache chaos restart_limit idle_timeout =
    if replicas < 1 then `Error (false, "--replicas must be >= 1")
    else if restart_limit < 0 then `Error (false, "--restart-limit must be >= 0")
    else
      match
        match chaos with
        | None -> Ok ()
        | Some spec ->
          Result.map (fun (_ : Prserve.Chaos.t) -> ()) (Prserve.Chaos.of_string spec)
      with
      | Error message -> `Error (false, "--chaos: " ^ message)
      | Ok () ->
        let exe = Sys.executable_name in
        let base_argv =
          List.concat
            [ [ exe; "serve"; "--jobs"; string_of_int jobs;
                "--strategy"; strategy ];
              (match device with
               | Some d -> [ "--device"; d ]
               | None -> []);
              (match budget_opt with
               | Some (r : Fpga.Resource.t) ->
                 [ "--budget";
                   Printf.sprintf "%d,%d,%d" r.clb r.bram r.dsp ]
               | None -> []);
              (if no_deadline then [ "--no-deadline" ] else []);
              (match shared_cache with
               | Some d -> [ "--shared-cache"; d ]
               | None -> []);
              (match idle_timeout with
               | Some s -> [ "--idle-timeout"; string_of_float s ]
               | None -> []) ]
        in
        let specs =
          List.init replicas (fun i ->
              let sock = Printf.sprintf "%s-%d.sock" socket_prefix i in
              { Prserve.Supervisor.name = Printf.sprintf "replica-%d" i;
                address = Prserve.Endpoint.Unix_path sock;
                argv =
                  (fun ~incarnation ->
                    Array.of_list
                      (base_argv
                      @ [ "--socket"; sock ]
                      @
                      match chaos with
                      | Some spec when incarnation = 0 -> [ "--chaos"; spec ]
                      | Some _ | None -> [])) })
        in
        let telemetry = Prtelemetry.create Prtelemetry.Sink.null in
        let config =
          { (Prserve.Supervisor.default_config ~telemetry ()) with
            restart_limit }
        in
        (match Prserve.Supervisor.start ~config specs with
         | Error message -> `Error (false, message)
         | Ok sup ->
           let stopping = ref false in
           let stop _ =
             (* Quiesce the monitor right here: a process-group signal
                (timeout(1), job-control kill) also hits the replicas,
                and their exits must not be booked as restarts while
                this loop wakes up to call [Supervisor.stop]. *)
             Prserve.Supervisor.request_stop sup;
             stopping := true
           in
           Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
           Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
           (match Prserve.Supervisor.await_healthy sup with
            | Ok () ->
              Format.printf "prfleet: %d replicas healthy (pid %d)@." replicas
                (Unix.getpid ())
            | Error message -> Format.printf "prfleet: %s@." message);
           Format.print_flush ();
           while not !stopping do
             Thread.delay 0.1
           done;
           Prserve.Supervisor.stop sup;
           Format.printf "prfleet: stopped (%d restarts%s)@."
             (Prserve.Supervisor.restarts sup)
             (if Prserve.Supervisor.gave_up sup then ", some replicas gave up"
              else "");
           `Ok ())
  in
  let doc =
    "Run a supervised fleet of $(b,serve) replicas on per-replica Unix \
     sockets: crashed replicas restart under an exponential-backoff \
     budget, unresponsive ones are put down after failed HEALTH \
     probes, and $(b,--shared-cache) lets all replicas serve each \
     other's cached solves. SIGINT/SIGTERM stop the fleet. See \
     DESIGN.md §14."
  in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(
      ret
        (const run $ device_arg $ budget_arg $ strategy_arg $ jobs_arg
         $ fleet_no_deadline_arg $ replicas_arg $ socket_prefix_arg
         $ shared_cache_arg $ chaos_arg $ restart_limit_arg
         $ idle_timeout_arg))

let () =
  let doc = "automated partitioning for partial reconfiguration designs" in
  let info = Cmd.info "prpart" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ partition_cmd; profile_cmd; baselines_cmd; simulate_cmd;
            synth_cmd; flow_cmd; batch_cmd; serve_cmd; fleet_cmd;
            recover_cmd; check_cmd; fuzz_cmd; lint_cmd; devices_cmd;
            designs_cmd ]))
