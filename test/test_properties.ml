(* Randomised cross-validation: properties that check independently
   derived implementations against each other over synthetic designs, so
   a bug in one layer must conspire with a matching bug in another to
   slip through. *)

module Design = Prdesign.Design
module Configuration = Prdesign.Configuration
module Scheme = Prcore.Scheme
module Cost = Prcore.Cost
module Engine = Prcore.Engine
module Resource = Fpga.Resource

let gen_design =
  QCheck2.Gen.(
    map
      (fun seed ->
        let classes = Array.of_list Synth.Generator.all_classes in
        Synth.Generator.generate
          (Synth.Rng.make seed)
          classes.(seed mod Array.length classes)
          ~index:seed)
      (0 -- 20_000))

let solve_auto design =
  match Engine.solve ~target:Engine.Auto design with
  | Ok outcome -> Some outcome
  | Error _ -> None

(* Property 1: the modular scheme's total, computed through the full
   Scheme/Cost machinery, equals a from-scratch reimplementation working
   directly on the design: for each module, frames of its largest mode's
   quantised region times the number of configuration pairs in which the
   module runs two different modes. *)
let prop_modular_total_independent =
  QCheck2.Test.make ~name:"modular total vs independent reimplementation"
    ~count:100 gen_design (fun design ->
      let via_scheme =
        (Cost.evaluate (Scheme.one_module_per_region design)).Cost.total_frames
      in
      let configs = Design.configuration_count design in
      let manual = ref 0 in
      for m = 0 to Design.module_count design - 1 do
        let frames =
          Fpga.Tile.frames_of_resources
            (Prdesign.Pmodule.largest_mode design.Design.modules.(m))
        in
        let mode_in c =
          Configuration.mode_of_module design.Design.configurations.(c) m
        in
        for i = 0 to configs - 1 do
          for j = i + 1 to configs - 1 do
            match (mode_in i, mode_in j) with
            | Some a, Some b when a <> b -> manual := !manual + frames
            | Some _, Some _ | None, _ | _, None -> ()
          done
        done
      done;
      via_scheme = !manual)

(* Property 2: under every engine scheme, each configuration's modes are
   exactly provided by the residents of its regions plus the static
   clusters. *)
let prop_configurations_covered =
  QCheck2.Test.make ~name:"engine scheme covers every configuration"
    ~count:60 gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let scheme = outcome.Engine.scheme in
        let static_modes =
          List.concat_map
            (fun p -> scheme.Scheme.partitions.(p).Cluster.Base_partition.modes)
            (Scheme.static_members scheme)
        in
        List.for_all
          (fun c ->
            let provided =
              static_modes
              @ List.concat_map
                  (fun r ->
                    match Scheme.active_partition scheme ~config:c ~region:r with
                    | Some p ->
                      scheme.Scheme.partitions.(p).Cluster.Base_partition.modes
                    | None -> [])
                  (List.init scheme.Scheme.region_count Fun.id)
            in
            List.for_all
              (fun mode -> List.mem mode provided)
              (Design.config_mode_ids design c))
          (List.init (Design.configuration_count design) Fun.id))

(* Property 3: a larger budget never yields a worse total. *)
let prop_budget_monotone =
  QCheck2.Test.make ~name:"total time monotone in the budget" ~count:40
    gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let budget = outcome.Engine.budget in
        let bigger =
          { Resource.clb = budget.Resource.clb * 3 / 2;
            bram = budget.Resource.bram * 3 / 2;
            dsp = budget.Resource.dsp * 3 / 2 }
        in
        (match
           ( Engine.solve ~target:(Engine.Budget budget) design,
             Engine.solve ~target:(Engine.Budget bigger) design )
         with
         | Ok small, Ok large ->
           large.Engine.evaluation.Cost.total_frames
           <= small.Engine.evaluation.Cost.total_frames
         | (Error _ | Ok _), _ -> QCheck2.assume_fail ()))

(* Property 4: scheme XML persistence round-trips engine outputs. *)
let prop_scheme_xml_roundtrip =
  QCheck2.Test.make ~name:"scheme xml round trip on engine outputs"
    ~count:60 gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let scheme = outcome.Engine.scheme in
        let reloaded =
          Prcore.Scheme_xml.of_string design (Prcore.Scheme_xml.to_string scheme)
        in
        (Cost.evaluate reloaded).Cost.total_frames
        = (Cost.evaluate scheme).Cost.total_frames
        && reloaded.Scheme.region_count = scheme.Scheme.region_count)

(* Property 5: wrapper emission produces one valid Verilog module per
   file (to_verilog validates internally and would raise). *)
let prop_wrappers_valid =
  QCheck2.Test.make ~name:"wrapper emission is valid Verilog" ~count:30
    gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let files = Hdl.Wrapper.emit_scheme outcome.Engine.scheme in
        files <> []
        && List.for_all
             (fun (name, content) ->
               Filename.check_suffix name ".v" && String.length content > 0)
             files)

(* Property 6: repository storage accounting is self-consistent and every
   bitstream parses back. *)
let prop_repository_consistent =
  QCheck2.Test.make ~name:"bitstream repository self-consistent" ~count:30
    gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let device =
          match outcome.Engine.device with
          | Some d -> d
          | None -> Fpga.Device.find_exn "FX200T"
        in
        let repo = Bitgen.Repository.build ~device outcome.Engine.scheme in
        let sum =
          List.fold_left
            (fun acc (e : Bitgen.Repository.entry) ->
              acc + Bitgen.Bitstream.size_bytes e.bitstream)
            0 repo.Bitgen.Repository.entries
        in
        sum = Bitgen.Repository.partial_bytes repo
        && List.for_all
             (fun (e : Bitgen.Repository.entry) ->
               Result.is_ok
                 (Bitgen.Bitstream.parse
                    (Bitgen.Bitstream.serialise e.bitstream)))
             repo.Bitgen.Repository.entries)

(* Property 7: traces round-trip through their text format. *)
let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"trace text round trip" ~count:60
    QCheck2.Gen.(pair gen_design (0 -- 10_000))
    (fun (design, seed) ->
      let configs = Design.configuration_count design in
      if configs < 2 then true
      else begin
        let rng = Synth.Rng.make seed in
        let trace =
          Runtime.Trace.record design ~initial:0
            ~sequence:
              (Runtime.Manager.random_walk
                 ~rand:(fun n -> Synth.Rng.int rng n)
                 ~configs ~steps:30 ~initial:0)
        in
        match
          Runtime.Trace.of_string design (Runtime.Trace.to_string design trace)
        with
        | Ok t ->
          t.Runtime.Trace.sequence = trace.Runtime.Trace.sequence
          && t.Runtime.Trace.initial = trace.Runtime.Trace.initial
        | Error _ -> false
      end)

(* Property 8: the worst transition never exceeds the sum of all region
   frame counts (every region reconfigured at once). *)
let prop_worst_bounded =
  QCheck2.Test.make ~name:"worst case bounded by total region frames"
    ~count:60 gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let e = outcome.Engine.evaluation in
        e.Cost.worst_frames <= Array.fold_left ( + ) 0 e.Cost.region_frames)

(* Property 9: stateful simulation of a tour is bounded by the
   *directional* per-hop rule (a region is charged whenever the target
   configuration needs a resident that differs from the source's,
   including activation from idle). Note the paper's symmetric pairwise
   metric is NOT an upper bound: it treats idle-to-active hops as free,
   while a region woken from idle may hold the wrong bitstream. *)
let prop_tour_bounded_by_directional =
  QCheck2.Test.make
    ~name:"configuration tour bounded by directional per-hop sums" ~count:40
    gen_design (fun design ->
      match solve_auto design with
      | None -> QCheck2.assume_fail ()
      | Some outcome ->
        let scheme = outcome.Engine.scheme in
        let configs = Design.configuration_count design in
        if configs < 2 then true
        else begin
          let tour = List.init configs Fun.id @ [ 0 ] in
          let stats = Reference_runtime.pinned scheme ~initial:0 ~sequence:tour in
          let directional_hop i j =
            let cost = ref 0 in
            for r = 0 to scheme.Scheme.region_count - 1 do
              let needed c = Scheme.active_partition scheme ~config:c ~region:r in
              match needed j with
              | None -> ()
              | Some p ->
                if needed i <> Some p then
                  cost := !cost + Scheme.region_frames scheme r
            done;
            !cost
          in
          let bound = ref 0 in
          let prev = ref 0 in
          List.iter
            (fun c ->
              if c <> !prev then bound := !bound + directional_hop !prev c;
              prev := c)
            tour;
          stats.Runtime.Manager.total_frames <= !bound
        end)

(* Property 10: fetch-cache accounting invariants under arbitrary access
   and invalidation streams. Frames are a pure function of the key, as in
   real use (a (region, partition) pair always names the same bitstream). *)
let frames_of_key (r, p) = ((7 * r) + (3 * p) + 5) mod 43

let gen_cache_workload =
  QCheck2.Gen.(
    triple
      (oneofl [ Runtime.Fetch.Lru; Runtime.Fetch.Fifo; Runtime.Fetch.Largest_out ])
      (0 -- 120)
      (list_size (0 -- 120)
         (triple (0 -- 3) (0 -- 5) (* invalidate? *) (frequencyl [ (5, false); (1, true) ]))))

let prop_cache_accounting =
  QCheck2.Test.make ~name:"fetch cache accounting invariants" ~count:300
    gen_cache_workload (fun (policy, capacity, ops) ->
      let cache =
        Runtime.Fetch.create_cache ~policy ~capacity_frames:capacity ()
      in
      List.for_all
        (fun (r, p, invalidate) ->
          let key = (r, p) in
          let was_resident =
            List.mem_assoc key (Runtime.Fetch.residents cache)
          in
          if invalidate then Runtime.Fetch.invalidate cache ~key
          else begin
            let a =
              Runtime.Fetch.access cache Runtime.Fetch.flash ~key
                ~frames:(frames_of_key key)
            in
            (* A hit exactly when the key was already resident. *)
            if a.Runtime.Fetch.hit <> was_resident then
              QCheck2.Test.fail_report "hit flag disagrees with residency"
          end;
          let residents = Runtime.Fetch.residents cache in
          let sum = List.fold_left (fun acc (_, f) -> acc + f) 0 residents in
          (* used = sum of resident frame counts, and never exceeds the
             capacity. *)
          sum = Runtime.Fetch.resident_frames cache
          && sum <= capacity
          && List.length residents
             = List.length (List.sort_uniq compare (List.map fst residents)))
        ops)

(* Property 11: the Largest_out policy always evicts (one of) the largest
   resident entries: every evicted bitstream is at least as large as
   every survivor from before the access. *)
let prop_largest_out_evicts_largest =
  QCheck2.Test.make ~name:"largest-out evicts a largest resident" ~count:300
    QCheck2.Gen.(
      pair (1 -- 120)
        (list_size (1 -- 120) (pair (0 -- 3) (0 -- 5))))
    (fun (capacity, keys) ->
      let cache =
        Runtime.Fetch.create_cache ~policy:Runtime.Fetch.Largest_out
          ~capacity_frames:capacity ()
      in
      List.for_all
        (fun key ->
          let before = Runtime.Fetch.residents cache in
          ignore
            (Runtime.Fetch.access cache Runtime.Fetch.flash ~key
               ~frames:(frames_of_key key));
          let after = Runtime.Fetch.residents cache in
          let evicted =
            List.filter (fun (k, _) -> not (List.mem_assoc k after)) before
          in
          let survivors =
            List.filter (fun (k, _) -> List.mem_assoc k after) before
          in
          List.for_all
            (fun (_, ef) ->
              List.for_all (fun (_, sf) -> ef >= sf) survivors)
            evicted)
        keys)

(* Property: the indexed greedy resolution in [Compatibility.analyse]
   equals the rescanning reference it replaced, on every kind of
   partition list the pipeline builds (mode singletons, covering
   candidate sets, the single-region scheme's overlapping clusters) and
   on random overlapping or non-covering lists. [naive_resolve] is the
   reference: per pick, scan every partition against every uncovered
   mode. *)
let naive_resolve partitions config_modes mark =
  let uncovered = ref config_modes in
  let continue_ = ref true in
  while !continue_ && !uncovered <> [] do
    let best = ref None in
    Array.iteri
      (fun p (bp : Cluster.Base_partition.t) ->
        let covered =
          List.length
            (List.filter (fun m -> Cluster.Base_partition.mem m bp) !uncovered)
        in
        match !best with
        | Some (_, best_covered) when covered <= best_covered -> ()
        | Some _ | None -> if covered > 0 then best := Some (p, covered))
      partitions;
    match !best with
    | None -> continue_ := false
    | Some (p, _) ->
      mark p;
      uncovered :=
        List.filter
          (fun m -> not (Cluster.Base_partition.mem m partitions.(p)))
          !uncovered
  done;
  !uncovered = []

let naive_analyse design partitions =
  let configs = Design.configuration_count design in
  let activity = Array.make_matrix (Array.length partitions) configs false in
  let covers = ref true in
  for c = 0 to configs - 1 do
    let full =
      naive_resolve partitions
        (Design.config_mode_ids design c)
        (fun p -> activity.(p).(c) <- true)
    in
    if not full then covers := false
  done;
  (activity, !covers)

let indexed_matches_naive design partitions =
  let analysis = Prcore.Compatibility.analyse design partitions in
  let activity, covers = naive_analyse design partitions in
  Prcore.Compatibility.covers_design analysis = covers
  && Array.for_all Fun.id
       (Array.mapi
          (fun p row ->
            Array.for_all Fun.id
              (Array.mapi
                 (fun c on ->
                   Prcore.Compatibility.active analysis ~bp:p ~config:c = on)
                 row))
          activity)

(* Random mode subsets, half drawn inside one configuration (so they
   overlap the way clusters do) and half from all modes, listed in a
   random priority order. *)
let random_partitions rng design =
  let modes = Design.mode_count design in
  let configs = Design.configuration_count design in
  let count = 1 + Random.State.int rng (2 * modes) in
  let subset pool =
    let pool = Array.of_list pool in
    let size = 1 + Random.State.int rng (min 6 (Array.length pool)) in
    List.sort_uniq Int.compare
      (List.init size (fun _ -> pool.(Random.State.int rng (Array.length pool))))
  in
  let all_modes = List.init modes Fun.id in
  let parts =
    Array.init count (fun _ ->
        let pool =
          if Random.State.bool rng then
            Design.config_mode_ids design (Random.State.int rng configs)
          else all_modes
        in
        Cluster.Base_partition.make design ~modes:(subset pool) ~freq:1)
  in
  for i = count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = parts.(i) in
    parts.(i) <- parts.(j);
    parts.(j) <- t
  done;
  parts

let prop_compatibility_indexed =
  QCheck2.Test.make ~name:"indexed compatibility analysis equals naive greedy"
    ~count:100
    QCheck2.Gen.(pair gen_design (0 -- 1_000_000))
    (fun (design, seed) ->
      let rng = Random.State.make [| seed |] in
      let singletons = Array.of_list (Prcore.Multilevel.nodes design) in
      let candidate_sets =
        List.map Array.of_list
          (Prcore.Covering.candidate_sets design
             (Cluster.Agglomerative.run design))
      in
      let clusters = (Scheme.single_region design).Scheme.partitions in
      (* Drop at least one singleton: some used mode has no provider. *)
      let dropped = Random.State.int rng (Array.length singletons) in
      let uncovering =
        Array.of_list
          (List.filteri
             (fun i _ -> i <> dropped && Random.State.bool rng)
             (Array.to_list singletons))
      in
      List.for_all (indexed_matches_naive design)
        ([ singletons; clusters; uncovering; random_partitions rng design;
           random_partitions rng design ]
        @ candidate_sets)
      && not
           (Prcore.Compatibility.covers_design
              (Prcore.Compatibility.analyse design uncovering)))

(* Property 13: [Cost.evaluate], [Cost.transition_matrix] and
   [Cost.pairwise_frames] read the scheme's resident table (lowest active
   member wins). The oracle re-derives the evaluation from scratch, and
   the matrix must agree with the per-pair entry point; both must hold on
   single-region schemes (overlapping whole-configuration clusters),
   modular schemes and greedy outcomes under the modular scheme's own
   budget. *)
let cost_matches_references s =
  let configs = Design.configuration_count s.Scheme.design in
  let m = Cost.transition_matrix s in
  Cost.equal_evaluation (Cost.evaluate s)
    (Prverify.Oracle.derive_evaluation s)
  && List.for_all
       (fun i ->
         List.for_all
           (fun j -> m.(i).(j) = Cost.pairwise_frames s i j)
           (List.init configs Fun.id))
       (List.init configs Fun.id)

let prop_cost_one_pass_residency =
  QCheck2.Test.make ~name:"one-pass residency matches oracle and pairwise"
    ~count:60 gen_design (fun design ->
      let modular = Scheme.one_module_per_region design in
      let greedy =
        match
          Engine.solve
            ~target:(Engine.Budget (Cost.evaluate modular).Cost.used)
            design
        with
        | Ok outcome -> [ outcome.Engine.scheme ]
        | Error _ -> []
      in
      List.for_all cost_matches_references
        ([ Scheme.single_region design; modular ] @ greedy))

(* Property 14: the index [Scheme.make] builds answers every structural
   query exactly as a from-scratch scan of the placement does
   ([Reference_runtime]), on huge-class outcomes of the multilevel
   backend and on their single-region and modular reference schemes. *)
let index_matches_scan (s : Scheme.t) =
  let configs = Design.configuration_count s.Scheme.design in
  let region_ok r =
    Scheme.region_members s r = Reference_runtime.region_members s r
    && Scheme.region_frames s r = Reference_runtime.region_frames s r
    && List.for_all
         (fun c ->
           Scheme.active_partition s ~config:c ~region:r
           = Reference_runtime.active_partition s ~config:c ~region:r
           && Scheme.initial_resident s ~initial:c r
              = Reference_runtime.initial_resident s ~initial:c r)
         (List.init configs Fun.id)
  in
  List.for_all region_ok (List.init s.Scheme.region_count Fun.id)

let prop_scheme_index_matches_scan =
  QCheck2.Test.make ~name:"scheme index matches a placement scan" ~count:25
    QCheck2.Gen.(pair (0 -- 10_000) (4 -- 40))
    (fun (seed, modules) ->
      let design = Synth.Generator.huge ~seed ~modules () in
      let modular = Scheme.one_module_per_region design in
      let solved =
        match
          Engine.solve ~strategy:Prcore.Strategy.Multilevel
            ~target:(Engine.Budget (Cost.evaluate modular).Cost.used)
            design
        with
        | Ok outcome -> [ outcome.Engine.scheme ]
        | Error _ -> []
      in
      List.for_all index_matches_scan
        ([ Scheme.single_region design; modular ] @ solved))

let () =
  Alcotest.run "cross-validation"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_modular_total_independent;
            prop_configurations_covered;
            prop_budget_monotone;
            prop_scheme_xml_roundtrip;
            prop_wrappers_valid;
            prop_repository_consistent;
            prop_trace_roundtrip;
            prop_worst_bounded;
            prop_tour_bounded_by_directional;
            prop_cache_accounting;
            prop_largest_out_evicts_largest;
            prop_compatibility_indexed;
            prop_cost_one_pass_residency;
            prop_scheme_index_matches_scan ] ) ]
