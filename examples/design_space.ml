(* Design-space exploration: the area / reconfiguration-time trade-off.

   The paper's algorithm can either partition for a fixed FPGA or suggest
   the smallest suitable one. This example sweeps resource budgets for the
   video-receiver case study from the single-region lower bound up to the
   fully static upper bound, prints the trade-off curve and its Pareto
   frontier, and asks for the smallest suitable catalogued device.

   Run with: dune exec examples/design_space.exe [design-name] *)

let () =
  let design =
    if Array.length Sys.argv > 1 then
      match Prdesign.Design_library.find Sys.argv.(1) with
      | Some d -> d
      | None ->
        Format.eprintf "unknown design %s; see `prpart designs`@." Sys.argv.(1);
        exit 2
    else Prdesign.Design_library.video_receiver
  in
  Format.printf "Design: %s@.@." (Prdesign.Design.summary design);

  (* 1. Bounds of the space. *)
  let lower =
    Fpga.Resource.add
      (Fpga.Tile.quantize (Prdesign.Design.min_region_requirement design))
      design.static_overhead
  in
  let upper =
    Fpga.Resource.add
      (Prdesign.Design.static_requirement design)
      design.static_overhead
  in
  Format.printf "Single-region lower bound: %a@." Fpga.Resource.pp lower;
  Format.printf "Fully static upper bound:  %a@.@." Fpga.Resource.pp upper;

  (* 2. Sweep interpolated budgets. *)
  let budgets = Prcore.Design_space.scaled_budgets ~steps:10 design in
  let results = Prcore.Design_space.sweep design ~budgets in
  Format.printf "Budget sweep (total/worst in frames, area in frame-equivalents):@.";
  print_string (Prcore.Design_space.render results);

  (* 3. The Pareto frontier of feasible points. *)
  let feasible = List.filter_map snd results in
  let frontier = Prcore.Design_space.frontier feasible in
  Format.printf "@.Pareto frontier (area vs total reconfiguration time):@.";
  List.iter
    (fun (p : Prcore.Design_space.point) ->
      Format.printf "  area %6d frames -> total %8d frames (%d regions, %d static)@."
        p.used_frames p.total_frames p.regions p.statics)
    frontier;

  (* 4. Smallest catalogued device. *)
  (match Prcore.Design_space.suggest_device design with
   | Some device ->
     Format.printf "@.Smallest suitable device: %a@." Fpga.Device.pp device
   | None -> Format.printf "@.No catalogued device fits this design.@.");

  (* 5. How the extremes behave at runtime: simulate a random walk at the
     tightest and loosest feasible budgets. *)
  match List.filter_map snd results with
  | [] -> Format.printf "No feasible budget in the sweep.@."
  | points ->
    let tightest = List.hd points in
    let loosest = List.nth points (List.length points - 1) in
    let simulate (p : Prcore.Design_space.point) =
      match
        Prcore.Engine.solve ~target:(Prcore.Engine.Budget p.budget) design
      with
      | Error _ -> ()
      | Ok outcome ->
        let rng = Synth.Rng.make 31 in
        let sequence =
          Runtime.Manager.random_walk
            ~rand:(fun n -> Synth.Rng.int rng n)
            ~configs:(Prdesign.Design.configuration_count design)
            ~steps:2000 ~initial:0
        in
        match
          Runtime.Resilient.simulate outcome.scheme ~initial:0 ~sequence
        with
        | Ok o ->
          Format.printf "  budget %a: %a@." Fpga.Resource.pp p.budget
            Runtime.Manager.pp_stats o.Runtime.Resilient.stats
        | Error f -> failwith (Runtime.Resilient.render_failure f)
    in
    Format.printf "@.2000-step adaptation walks at the sweep extremes:@.";
    simulate tightest;
    if loosest.budget <> tightest.budget then simulate loosest
