(* The paper's case study: a wireless video receiver (Table II) that
   adapts its filter, recovery, demodulation, decoding and video codec to
   channel conditions.

   Partitions the design for the case-study budget, validates the result
   with the columnar floorplanner on the FX70T (the paper's board), and
   reports ICAP wall-clock reconfiguration times.

   Run with: dune exec examples/video_receiver.exe *)

let () =
  let design = Prdesign.Design_library.video_receiver in
  let budget = Prdesign.Design_library.case_study_budget in
  Format.printf "Design: %s@." (Prdesign.Design.summary design);
  Format.printf "Budget: %a@.@." Fpga.Resource.pp budget;

  let outcome =
    match Prcore.Engine.solve ~target:(Prcore.Engine.Budget budget) design with
    | Ok outcome -> outcome
    | Error message -> failwith message
  in
  let scheme = outcome.scheme in
  Format.printf "Chosen partitioning:@.%s" (Prcore.Scheme.describe scheme);
  Format.printf "%a@.@." Prcore.Cost.pp_evaluation outcome.evaluation;

  (* Floorplan the reconfigurable regions (plus a pseudo-region for the
     static area). The paper floorplans on an FX70T, but the real part has
     only 128 DSP slices (16 DSP tiles) — fewer than the paper's own
     150-DSP budget — so per-region tile rounding cannot fit; the FX130T
     is the smallest catalogued device whose DSP columns suffice. *)
  let device = Fpga.Device.find_exn "FX130T" in
  let layout = Floorplan.Layout.make device in
  Format.printf "Floorplanning on %a:@.  columns: %a@." Fpga.Device.pp device
    Floorplan.Layout.pp layout;
  let demands =
    Array.init (scheme.region_count + 1) (fun i ->
        if i < scheme.region_count then
          Floorplan.Placer.demand_of_resources
            (Prcore.Scheme.region_resources scheme i)
        else
          Floorplan.Placer.demand_of_resources
            (Prcore.Scheme.static_resources scheme))
  in
  let outcome_fp = Floorplan.Placer.place layout demands in
  Array.iteri
    (fun i rect ->
      let label =
        if i < scheme.region_count then Printf.sprintf "PRR%d" (i + 1)
        else "static"
      in
      match rect with
      | Some r -> Format.printf "  %-7s -> %a@." label Floorplan.Placer.pp_rect r
      | None -> Format.printf "  %-7s -> UNPLACEABLE@." label)
    outcome_fp.placements;
  Format.printf "  device tile utilisation: %.1f%%@."
    (100. *. outcome_fp.utilisation);
  Format.printf "%s@."
    (Floorplan.Placer.render_map layout outcome_fp.placements);

  (* Wall-clock reconfiguration times through the ICAP. *)
  let icap = Fpga.Icap.make ~throughput_derate:0.95 () in
  let transition = Runtime.Transition.make ~icap scheme in
  Format.printf "ICAP model: %a@." Fpga.Icap.pp icap;
  (match Runtime.Transition.worst transition with
   | Some (i, j, frames) ->
     Format.printf "Worst transition: %s -> %s, %d frames = %.2f ms@."
       design.configurations.(i).name design.configurations.(j).name frames
       (1e3 *. Runtime.Transition.seconds transition i j)
   | None -> ());
  Format.printf "Sum over all transitions: %d frames@."
    (Runtime.Transition.total_frames transition);

  (* A short channel-adaptation scenario: degrade from clean (c1, MPEG4)
     to noisy (c4, BPSK+DPC), then recover. *)
  let scenario = [ 1; 2; 3; 6; 5; 4; 3; 0 ] in
  Format.printf "@.Channel-adaptation scenario:@.";
  (match
     Runtime.Resilient.simulate ~icap scheme ~initial:0 ~sequence:scenario
       ~trace:(fun (event : Runtime.Manager.event) ->
         Format.printf "  step %d: %s -> %s, %d frames (%.2f ms)@."
           event.step
           design.configurations.(event.from_config).name
           design.configurations.(event.to_config).name event.frames
           (1e3 *. event.seconds))
   with
   | Ok o ->
     Format.printf "Scenario total: %a@." Runtime.Manager.pp_stats
       o.Runtime.Resilient.stats
   | Error f -> failwith (Runtime.Resilient.render_failure f))
