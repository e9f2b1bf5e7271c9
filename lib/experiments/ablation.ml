module Design_library = Prdesign.Design_library
module Engine = Prcore.Engine
module Cost = Prcore.Cost
module Scheme = Prcore.Scheme

type variant_result = {
  label : string;
  total_frames : int;
  worst_frames : int;
  regions : int;
  statics : int;
  base_partitions : int;
}

let solve_with ~label ~options design =
  match
    Engine.solve ~options
      ~target:(Engine.Budget Design_library.case_study_budget) design
  with
  | Error message -> failwith ("ablation solve failed: " ^ message)
  | Ok o ->
    { label;
      total_frames = o.Engine.evaluation.Cost.total_frames;
      worst_frames = o.Engine.evaluation.Cost.worst_frames;
      regions = o.Engine.scheme.Scheme.region_count;
      statics = List.length (Scheme.static_members o.Engine.scheme);
      base_partitions = o.Engine.base_partitions }

let frequency_rule () =
  List.concat_map
    (fun (tag, design) ->
      [ solve_with ~label:(tag ^ " / support") ~options:Engine.default_options
          design;
        solve_with
          ~label:(tag ^ " / min-edge")
          ~options:
            { Engine.default_options with
              freq_rule = Cluster.Agglomerative.Min_edge }
          design ])
    [ ("receiver", Design_library.video_receiver);
      ("receiver-alt", Design_library.video_receiver_alt) ]

let static_promotion () =
  let no_promotion =
    { Engine.default_options with
      allocator = { Prcore.Allocator.default_options with promote_static = false } }
  in
  List.concat_map
    (fun (tag, design) ->
      [ solve_with ~label:(tag ^ " / promotion on")
          ~options:Engine.default_options design;
        solve_with ~label:(tag ^ " / promotion off") ~options:no_promotion
          design ])
    [ ("receiver", Design_library.video_receiver);
      ("receiver-alt", Design_library.video_receiver_alt) ]

let restart_budget () =
  List.map
    (fun restarts ->
      solve_with
        ~label:(Printf.sprintf "receiver / %d restarts" restarts)
        ~options:
          { Engine.default_options with
            allocator =
              { Prcore.Allocator.default_options with max_restarts = restarts } }
        Design_library.video_receiver)
    [ 0; 2; 8; 24 ]

type proxy_result = {
  design_name : string;
  pairwise_mean_frames : float;
  simulated_mean_frames : float;
}

let proxy_vs_simulation ?(steps = 4000) ?(seed = 7) () =
  List.map
    (fun (design, budget) ->
      let outcome =
        match Engine.solve ~target:(Engine.Budget budget) design with
        | Ok o -> o
        | Error message -> failwith ("proxy ablation: " ^ message)
      in
      let scheme = outcome.Engine.scheme in
      let configs = Prdesign.Design.configuration_count design in
      let pairs = configs * (configs - 1) / 2 in
      let pairwise_mean_frames =
        float_of_int outcome.Engine.evaluation.Cost.total_frames
        /. float_of_int (max 1 pairs)
      in
      let rng = Synth.Rng.make seed in
      let sequence =
        Runtime.Manager.random_walk
          ~rand:(fun n -> Synth.Rng.int rng n)
          ~configs ~steps ~initial:0
      in
      let stats =
        match Runtime.Resilient.simulate scheme ~initial:0 ~sequence with
        | Ok o -> o.Runtime.Resilient.stats
        | Error f ->
          failwith ("proxy ablation: " ^ Runtime.Resilient.render_failure f)
      in
      { design_name = design.Prdesign.Design.name;
        pairwise_mean_frames;
        simulated_mean_frames = stats.Runtime.Manager.mean_frames })
    [ (Design_library.video_receiver, Design_library.case_study_budget);
      (Design_library.video_receiver_alt, Design_library.case_study_budget);
      ( Design_library.running_example,
        Fpga.Resource.make ~bram:8 ~dsp:16 1200 ) ]

type gap_result = {
  name : string;
  candidate_size : int;
  greedy_total : int;
  anneal_total : int;
  exact_total : int;
  gap_pct : float;
  anneal_gap_pct : float;
  exact_optimal : bool;
}

let optimality_gap ?(count = 20) ?(seed = 11) () =
  (* Small designs keep the exact search tractable. *)
  let spec =
    { Synth.Generator.default_spec with modules = (2, 3); modes = (2, 3) }
  in
  let designs = Synth.Generator.batch ~spec ~seed ~count () in
  List.filter_map
    (fun (_, design) ->
      match Engine.solve ~target:Engine.Auto design with
      | Error _ -> None
      | Ok outcome ->
        let budget = outcome.Engine.budget in
        let partitions = Cluster.Agglomerative.run design in
        (match Prcore.Covering.cover design partitions with
         | None -> None
         | Some set ->
           let greedy = Prcore.Allocator.allocate ~budget design set in
           let anneal = Prcore.Anneal.allocate ~budget design set in
           let exact =
             Prcore.Exact.allocate ~max_states:500_000 ~budget design set
           in
           (match (greedy, exact.Prcore.Exact.scheme) with
            | Some g, Some e ->
              let greedy_total = (Cost.evaluate g).Cost.total_frames in
              let exact_total = (Cost.evaluate e).Cost.total_frames in
              let anneal_total =
                match anneal with
                | Some a -> (Cost.evaluate a).Cost.total_frames
                | None -> max_int
              in
              let gap proposed =
                if exact_total = 0 then if proposed = 0 then 0. else 100.
                else
                  100.
                  *. float_of_int (proposed - exact_total)
                  /. float_of_int exact_total
              in
              Some
                { name = design.Prdesign.Design.name;
                  candidate_size = List.length set;
                  greedy_total;
                  anneal_total;
                  exact_total;
                  gap_pct = gap greedy_total;
                  anneal_gap_pct = gap anneal_total;
                  exact_optimal = exact.Prcore.Exact.optimal }
            | _ -> None)))
    designs

type weighted_result = {
  design_name : string;
  uniform_objective_rate : float;
  weighted_objective_rate : float;
  improvement_pct : float;
}

(* A design where the weighted objective changes the decision: a big
   module whose mode rarely changes and a small module that oscillates.
   The budget has slack to promote only one of them to static; the
   uniform objective promotes the big one (larger unweighted saving), the
   weighted objective promotes the small hot one. *)
let hot_small_demo =
  let res = Fpga.Resource.make in
  let m name a b =
    Prdesign.Pmodule.make name
      [ Prdesign.Mode.make (name ^ "1") a; Prdesign.Mode.make (name ^ "2") b ]
  in
  Prdesign.Design.create_exn ~name:"hot-small-demo"
    ~modules:[ m "BIG" (res 2000 ~bram:8) (res 2000 ~bram:8);
               m "SML" (res 200 ~dsp:4) (res 200 ~dsp:4) ]
    ~configurations:
      [ Prdesign.Configuration.make "c1" [ (0, 0); (1, 0) ];
        Prdesign.Configuration.make "c2" [ (0, 1); (1, 0) ];
        Prdesign.Configuration.make "c3" [ (0, 0); (1, 1) ];
        Prdesign.Configuration.make "c4" [ (0, 1); (1, 1) ] ]
    ()

(* c1 <-> c3 oscillate (only SML changes); c2/c4 are rare excursions, so
   transitions changing BIG's mode are ~100x rarer than SML's. *)
let hot_small_chain =
  Runtime.Markov.make_exn
    [| [| 0.; 0.01; 0.98; 0.01 |];
       [| 0.98; 0.; 0.01; 0.01 |];
       [| 0.98; 0.01; 0.; 0.01 |];
       [| 0.98; 0.01; 0.01; 0. |] |]

(* Tight enough that exactly one merge is needed: the uniform objective
   merges the small module (cheapest unweighted conflicts), the weighted
   objective merges the big-but-cold one. *)
let hot_small_budget = Fpga.Resource.make ~bram:24 ~dsp:8 4300

let weighted_objective ?(seed = 3) () =
  List.map
    (fun (design, budget, fixed_chain) ->
      let configs = Prdesign.Design.configuration_count design in
      let rng = Synth.Rng.make seed in
      let chain =
        match fixed_chain with
        | Some chain -> chain
        | None ->
          Runtime.Markov.random
            ~rand:(fun () -> Synth.Rng.float rng)
            ~concentration:4. ~configs ()
      in
      let weights = Runtime.Markov.edge_rates chain in
      let solve objective =
        match
          Engine.solve
            ~options:{ Engine.default_options with objective }
            ~target:(Engine.Budget budget) design
        with
        | Ok o -> o.Engine.scheme
        | Error message -> failwith ("weighted ablation: " ^ message)
      in
      let rate scheme =
        let transition = Runtime.Transition.make scheme in
        Runtime.Markov.expected_frames_per_step chain
          ~frames:(Runtime.Transition.frames transition)
      in
      let uniform_objective_rate = rate (solve Engine.Total_frames) in
      let weighted_objective_rate = rate (solve (Engine.Weighted weights)) in
      { design_name = design.Prdesign.Design.name;
        uniform_objective_rate;
        weighted_objective_rate;
        improvement_pct =
          (if uniform_objective_rate = 0. then 0.
           else
             100.
             *. (uniform_objective_rate -. weighted_objective_rate)
             /. uniform_objective_rate) })
    [ (Design_library.video_receiver, Design_library.case_study_budget, None);
      ( Design_library.video_receiver_alt,
        Design_library.case_study_budget,
        None );
      ( Design_library.running_example,
        Fpga.Resource.make ~bram:16 ~dsp:32 1400,
        None );
      (hot_small_demo, hot_small_budget, Some hot_small_chain) ]

type cache_result = {
  label : string;
  capacity_frames : int;
  hit_rate_pct : float;
  icap_ms : float;
  fetch_ms : float;
  total_ms : float;
}

let fetch_cache ?(steps = 4000) ?(seed = 13) () =
  let design = Design_library.video_receiver in
  let outcome =
    match
      Engine.solve ~target:(Engine.Budget Design_library.case_study_budget)
        design
    with
    | Ok o -> o
    | Error message -> failwith ("cache ablation: " ^ message)
  in
  let scheme = outcome.Engine.scheme in
  let rng = Synth.Rng.make seed in
  let sequence =
    Runtime.Manager.random_walk
      ~rand:(fun n -> Synth.Rng.int rng n)
      ~configs:(Prdesign.Design.configuration_count design)
      ~steps ~initial:0
  in
  let total_partial_frames =
    List.fold_left
      (fun acc r -> acc + Prcore.Scheme.region_frames scheme r
                          * List.length (Prcore.Scheme.region_members scheme r))
      0
      (List.init scheme.Prcore.Scheme.region_count Fun.id)
  in
  let run label cache capacity =
    let report =
      match
        Runtime.Resilient.simulate ?cache ~memory:Runtime.Fetch.flash scheme
          ~initial:0 ~sequence
      with
      | Ok o -> Option.get o.Runtime.Resilient.fetch
      | Error f ->
        failwith ("cache ablation: " ^ Runtime.Resilient.render_failure f)
    in
    let accesses = report.Runtime.Fetch.hits + report.Runtime.Fetch.misses in
    { label;
      capacity_frames = capacity;
      hit_rate_pct =
        (if accesses = 0 then 0.
         else
           100. *. float_of_int report.Runtime.Fetch.hits
           /. float_of_int accesses);
      icap_ms = 1e3 *. report.Runtime.Fetch.icap_seconds;
      fetch_ms = 1e3 *. report.Runtime.Fetch.fetch_seconds;
      total_ms = 1e3 *. report.Runtime.Fetch.total_seconds }
  in
  let with_cache label policy fraction =
    let capacity = total_partial_frames * fraction / 100 in
    run
      (Printf.sprintf "%s @ %d%% of repertoire" label fraction)
      (Some (Runtime.Fetch.create_cache ~policy ~capacity_frames:capacity ()))
      capacity
  in
  run "no cache (flash every reload)" None 0
  :: List.concat_map
       (fun fraction ->
         [ with_cache "LRU" Runtime.Fetch.Lru fraction;
           with_cache "FIFO" Runtime.Fetch.Fifo fraction;
           with_cache "largest-out" Runtime.Fetch.Largest_out fraction ])
       [ 25; 50; 90 ]

let render_cache results =
  "Bitstream fetch path: on-chip cache policies vs flash-only\n"
  ^ Report.Table.render
      ~headers:
        [ "Variant"; "Capacity"; "Hit %"; "ICAP ms"; "Fetch ms"; "Total ms" ]
      (List.map
         (fun r ->
           [ r.label;
             string_of_int r.capacity_frames;
             Report.Table.fixed 1 r.hit_rate_pct;
             Report.Table.fixed 1 r.icap_ms;
             Report.Table.fixed 1 r.fetch_ms;
             Report.Table.fixed 1 r.total_ms ])
         results)

type arch_result = {
  arch : string;
  region_frames : int list;
  total_frames : int;
  total_bytes : int;
}

let cross_architecture () =
  let design = Design_library.video_receiver in
  let outcome =
    match
      Engine.solve ~target:(Engine.Budget Design_library.case_study_budget)
        design
    with
    | Ok o -> o
    | Error message -> failwith ("arch comparison: " ^ message)
  in
  let scheme = outcome.Engine.scheme in
  let evaluation = outcome.Engine.evaluation in
  List.map
    (fun arch ->
      let region_frames =
        List.init scheme.Prcore.Scheme.region_count (fun r ->
            Fpga.Arch.frames_of_resources arch
              (Prcore.Scheme.region_resources scheme r))
      in
      let total_frames =
        List.fold_left ( + ) 0
          (List.mapi
             (fun r f -> f * evaluation.Cost.region_conflicts.(r))
             region_frames)
      in
      { arch = arch.Fpga.Arch.name;
        region_frames;
        total_frames;
        total_bytes = total_frames * Fpga.Arch.bytes_per_frame arch })
    Fpga.Arch.all

let render_arch results =
  "Case-study partitioning re-costed per architecture generation\n"
  ^ Report.Table.render
      ~headers:[ "Architecture"; "Region frames"; "Total frames"; "Total MB" ]
      (List.map
         (fun r ->
           [ r.arch;
             String.concat "/" (List.map string_of_int r.region_frames);
             string_of_int r.total_frames;
             Report.Table.fixed 1 (float_of_int r.total_bytes /. 1e6) ])
         results)

let render_gap results =
  "Greedy and simulated annealing vs exact branch-and-bound (first \
   candidate set)\n"
  ^ Report.Table.render
      ~headers:
        [ "Design"; "Cand."; "Greedy"; "Anneal"; "Exact"; "Greedy gap %";
          "Anneal gap %" ]
      (List.map
         (fun (r : gap_result) ->
           [ r.name;
             string_of_int r.candidate_size;
             string_of_int r.greedy_total;
             (if r.anneal_total = max_int then "-"
              else string_of_int r.anneal_total);
             string_of_int r.exact_total;
             Report.Table.fixed 2 r.gap_pct;
             Report.Table.fixed 2 r.anneal_gap_pct ])
         results)
  ^
  let gaps = List.map (fun r -> r.gap_pct) results in
  let anneal_gaps = List.map (fun r -> r.anneal_gap_pct) results in
  if gaps = [] then ""
  else
    Printf.sprintf
      "greedy: mean gap %.2f%%, max %.2f%%; annealing: mean gap %.2f%%, max \
       %.2f%% over %d designs\n"
      (Report.Stats.mean gaps) (Report.Stats.maximum gaps)
      (Report.Stats.mean anneal_gaps)
      (Report.Stats.maximum anneal_gaps)
      (List.length gaps)

let render_weighted results =
  "Optimising for known transition statistics (expected frames/step)\n"
  ^ Report.Table.render
      ~headers:[ "Design"; "Uniform obj."; "Weighted obj."; "Improvement %" ]
      (List.map
         (fun (r : weighted_result) ->
           [ r.design_name;
             Report.Table.fixed 1 r.uniform_objective_rate;
             Report.Table.fixed 1 r.weighted_objective_rate;
             Report.Table.fixed 2 r.improvement_pct ])
         results)

let render_variants ~header results =
  header ^ "\n"
  ^ Report.Table.render
      ~headers:
        [ "Variant"; "Total"; "Worst"; "Regions"; "Static"; "Base part'ns" ]
      (List.map
         (fun (r : variant_result) ->
           [ r.label;
             string_of_int r.total_frames;
             string_of_int r.worst_frames;
             string_of_int r.regions;
             string_of_int r.statics;
             string_of_int r.base_partitions ])
         results)

let render_proxy results =
  "Pairwise metric vs stateful runtime simulation (mean frames/transition)\n"
  ^ Report.Table.render
      ~headers:[ "Design"; "Pairwise proxy"; "Simulated walk" ]
      (List.map
         (fun (r : proxy_result) ->
           [ r.design_name;
             Report.Table.fixed 1 r.pairwise_mean_frames;
             Report.Table.fixed 1 r.simulated_mean_frames ])
         results)
