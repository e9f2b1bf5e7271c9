(* Quickstart: the paper's running example end to end.

   Builds the three-module design of Section III, shows the connectivity
   matrix and the base partitions the clustering derives (Table I), then
   partitions the design for a tight budget and compares against the two
   textbook schemes.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let design = Prdesign.Design_library.running_example in
  Format.printf "Design: %s@.@." (Prdesign.Design.summary design);

  (* 1. The connectivity matrix (one row per configuration). *)
  let matrix = Prgraph.Conn_matrix.make design in
  Format.printf "Connectivity matrix (active modes per configuration):@.";
  for c = 0 to Prgraph.Conn_matrix.configurations matrix - 1 do
    Format.printf "  %-8s %s@."
      design.configurations.(c).Prdesign.Configuration.name
      (String.concat " "
         (List.map
            (Prdesign.Design.mode_label design)
            (Prgraph.Conn_matrix.config_modes matrix c)))
  done;
  Format.printf "@.";

  (* 2. Agglomerative clustering: base partitions with frequency weights. *)
  let partitions = Cluster.Agglomerative.run design in
  Format.printf "Base partitions (%d):@." (List.length partitions);
  List.iter
    (fun bp -> Format.printf "  %a@." (Cluster.Base_partition.pp design) bp)
    partitions;

  (* 3. Partition for a budget too small for one-region-per-mode. *)
  let budget = Fpga.Resource.make ~bram:8 ~dsp:16 1200 in
  Format.printf "@.Partitioning for budget %a@." Fpga.Resource.pp budget;
  (match Prcore.Engine.solve ~target:(Prcore.Engine.Budget budget) design with
   | Error message -> Format.printf "infeasible: %s@." message
   | Ok outcome ->
     Format.printf "%s" (Prcore.Scheme.describe outcome.scheme);
     Format.printf "%a@.@." Prcore.Cost.pp_evaluation outcome.evaluation;

     (* 4. Compare with the baselines under the same cost model. *)
     Format.printf "Scheme comparison (total / worst frames):@.";
     let show label (evaluation : Prcore.Cost.evaluation) =
       Format.printf "  %-18s %8d / %8d (fits: %b)@." label
         evaluation.total_frames evaluation.worst_frames
         (Prcore.Cost.fits evaluation ~budget)
     in
     show "proposed" outcome.evaluation;
     List.iter
       (fun (l : Baselines.Schemes.labelled) -> show l.label l.evaluation)
       (Baselines.Schemes.all design);

     (* 5. Per-transition costs of the chosen scheme. *)
     let transition = Runtime.Transition.make outcome.scheme in
     Format.printf "@.Transition matrix (frames):@.%a" Runtime.Transition.pp
       transition)
