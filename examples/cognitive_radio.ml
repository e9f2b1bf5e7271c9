(* An adaptive cognitive radio, the application class that motivates the
   paper (its introduction cites an LTE/GSM spectrum-sensing radio that
   switches between sensing and transmission without keeping both circuits
   resident).

   The radio has four reconfigurable modules:
     SEN - spectrum sensing (energy detector / cyclostationary detector)
     MOD - modem (BPSK / QPSK / QAM64)
     CHN - channelizer (narrowband / wideband)
     COD - channel coder (convolutional / LDPC / none)
   Sensing and transmission are mutually exclusive: sensing configurations
   carry no modem, transmission configurations carry no sensor — exactly
   the "modules absent from configurations" situation of paper §IV-D.

   Run with: dune exec examples/cognitive_radio.exe *)

let radio =
  let res = Fpga.Resource.make in
  let m name modes = Prdesign.Pmodule.make name modes in
  let mode name r = Prdesign.Mode.make name r in
  let modules =
    [ m "SEN"
        [ mode "energy" (res 450 ~bram:4 ~dsp:8);
          mode "cyclo" (res 1800 ~bram:12 ~dsp:36) ];
      m "MOD"
        [ mode "bpsk" (res 300 ~dsp:4);
          mode "qpsk" (res 420 ~dsp:8);
          mode "qam64" (res 980 ~dsp:24) ];
      m "CHN"
        [ mode "narrow" (res 600 ~bram:2 ~dsp:12);
          mode "wide" (res 1500 ~bram:8 ~dsp:48) ];
      m "COD"
        [ mode "conv" (res 350 ~bram:2);
          mode "ldpc" (res 1400 ~bram:18 ~dsp:6) ] ]
  in
  let c name choices = Prdesign.Configuration.make name choices in
  (* Module indices: SEN=0 MOD=1 CHN=2 COD=3. *)
  let configurations =
    [ c "sense-fast" [ (0, 0); (2, 0) ];
      c "sense-deep" [ (0, 1); (2, 1) ];
      c "tx-robust" [ (1, 0); (2, 0); (3, 0) ];
      c "tx-normal" [ (1, 1); (2, 0); (3, 0) ];
      c "tx-high" [ (1, 2); (2, 1); (3, 1) ];
      c "tx-burst" [ (1, 2); (2, 1); (3, 0) ] ]
  in
  Prdesign.Design.create_exn ~name:"cognitive-radio"
    ~static_overhead:(res 90 ~bram:8) ~modules ~configurations ()

let () =
  Format.printf "Design: %s@.@." (Prdesign.Design.summary radio);

  (* Let the engine pick the smallest suitable Virtex-5. *)
  let outcome =
    match Prcore.Engine.solve ~target:Prcore.Engine.Auto radio with
    | Ok outcome -> outcome
    | Error message -> failwith message
  in
  (match outcome.device with
   | Some device ->
     Format.printf "Selected device: %a (escalations: %d)@." Fpga.Device.pp
       device outcome.escalations
   | None -> ());
  Format.printf "%s" (Prcore.Scheme.describe outcome.scheme);
  Format.printf "%a@.@." Prcore.Cost.pp_evaluation outcome.evaluation;

  (* Compare with the baselines. *)
  List.iter
    (fun (l : Baselines.Schemes.labelled) ->
      Format.printf "  %-18s total %8d, worst %6d frames@." l.label
        l.evaluation.total_frames l.evaluation.worst_frames)
    (Baselines.Schemes.all radio);
  Format.printf "  %-18s total %8d, worst %6d frames@.@." "proposed"
    outcome.evaluation.total_frames outcome.evaluation.worst_frames;

  (* A day in the life: long random adaptation walk driven by "channel
     conditions" (uniform here; the paper notes transition probabilities
     as future work). *)
  let rng = Synth.Rng.make 42 in
  let sequence =
    Runtime.Manager.random_walk
      ~rand:(fun n -> Synth.Rng.int rng n)
      ~configs:(Prdesign.Design.configuration_count radio)
      ~steps:10_000 ~initial:0
  in
  let icap = Fpga.Icap.make ~overhead_s:20e-6 () in
  let replay scheme =
    match Runtime.Resilient.simulate ~icap scheme ~initial:0 ~sequence with
    | Ok o -> o.Runtime.Resilient.stats
    | Error f -> failwith (Runtime.Resilient.render_failure f)
  in
  let stats = replay outcome.scheme in
  Format.printf "10k-step adaptation walk: %a@." Runtime.Manager.pp_stats stats;
  Array.iteri
    (fun r loads -> Format.printf "  PRR%d reconfigured %d times@." (r + 1) loads)
    stats.region_loads;

  (* The same walk on the one-module-per-region baseline, for contrast. *)
  let modular = (Baselines.Schemes.one_module_per_region radio).scheme in
  let stats_modular = replay modular in
  Format.printf "same walk, 1 module/region: %a@." Runtime.Manager.pp_stats
    stats_modular
