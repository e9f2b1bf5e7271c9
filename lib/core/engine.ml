module Design = Prdesign.Design
module Resource = Fpga.Resource
module Agglomerative = Cluster.Agglomerative

type target = Budget of Resource.t | Fixed of Fpga.Device.t | Auto

type objective = Total_frames | Weighted of float array array

type options = {
  freq_rule : Agglomerative.freq_rule;
  clique_limit : int;
  max_candidate_sets : int;
  allocator : Allocator.options;
  objective : objective;
  worst_limit : int option;
}

let default_options =
  { freq_rule = Agglomerative.Support;
    clique_limit = 100_000;
    max_candidate_sets = 32;
    allocator = Allocator.default_options;
    objective = Total_frames;
    worst_limit = None }

let meets_worst_limit ~options (e : Cost.evaluation) =
  match options.worst_limit with
  | None -> true
  | Some limit -> e.Cost.worst_frames <= limit

(* Search introspection attached to every outcome. Prune totals are
   counter deltas over the solve (cheap, always populated, like
   [cost_evaluations]); [progress] — the best-cost-over-evaluations
   curve — is only collected when the caller's handle traces, so the
   default path allocates nothing. *)
type search_stats = {
  memo_hits : int;
  memo_misses : int;
  exact_states : int;
  exact_pruned : int;
  progress : (int * int) list;
}

let no_search_stats =
  { memo_hits = 0;
    memo_misses = 0;
    exact_states = 0;
    exact_pruned = 0;
    progress = [] }

type outcome = {
  design : Design.t;
  scheme : Scheme.t;
  evaluation : Cost.evaluation;
  device : Fpga.Device.t option;
  budget : Resource.t;
  base_partitions : int;
  candidate_sets : int;
  escalations : int;
  cost_evaluations : int;
  placement_penalty : int option;
  search : search_stats;
  degraded : Prguard.Budget.verdict;
}

let is_single_region_like (s : Scheme.t) =
  s.Scheme.region_count = 1 && Scheme.static_members s = []

(* Scheme ranking under the selected objective: objective value first,
   then the paper's worst case, then area. With a placement hook the
   integer placeability penalty joins the objective value, so schemes
   the floorplanner cannot realise lose the final ranking too — not
   just the allocator-internal searches. *)
let scheme_key ?placement ~objective scheme (e : Cost.evaluation) =
  let value =
    match objective with
    | Total_frames -> float_of_int e.Cost.total_frames
    | Weighted weights -> Cost.weighted_total scheme ~weights
  in
  let value =
    match placement with
    | None -> value
    | Some p -> value +. float_of_int (Cost.placement_penalty p scheme)
  in
  (value, e.Cost.worst_frames, Fpga.Tile.frames_of_resources e.Cost.used)

let better ?placement ~objective a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (sa, ea), Some (sb, eb) ->
    if
      scheme_key ?placement ~objective sa ea
      <= scheme_key ?placement ~objective sb eb
    then Some (sa, ea)
    else Some (sb, eb)

(* [None] is the unit weight, which the allocator costs in integers. *)
let pair_weight_of_objective ~configs = function
  | Total_frames -> Ok None
  | Weighted weights ->
    if
      Array.length weights <> configs
      || Array.exists (fun row -> Array.length row <> configs) weights
    then Error "objective weight matrix does not match the configurations"
    else Ok (Some (fun i j -> weights.(i).(j) +. weights.(j).(i)))

(* Total cost-model invocations attributable to one [solve] call: full
   [Cost.evaluate] runs plus the allocator's incremental move
   evaluations, read back from the telemetry counters as a delta so a
   caller-supplied handle can span several solves. *)
let cost_evaluation_counters tele =
  Prtelemetry.counter_value tele "core.cost_evaluations"
  + Prtelemetry.counter_value tele "alloc.moves_evaluated"

(* What one budget attempt produced, including how the guard shaped it:
   [rung] names the degradation-ladder rung that supplied the winning
   scheme (when a ladder ran), [fell_back] records that the answer is
   best-so-far rather than a full run (sets skipped, a rung escalated
   past, a truncated exact search), [reason] the budget-side cause. *)
type budget_solution = {
  bs_scheme : Scheme.t;
  bs_evaluation : Cost.evaluation;
  bs_partitions : int;
  bs_sets : int;
  bs_rung : string option;
  bs_fell_back : bool;
  bs_reason : Prguard.Budget.reason option;
}

(* Solve for a fixed budget. The single-region scheme is the universal
   fallback: the feasibility precondition guarantees it fits. *)
let solve_budget ~options ~strategy ~tele ~jobs ~note_progress ?guard
    ?ladder ?placement ~budget design =
  Prtelemetry.with_span tele "engine.solve_budget"
    ~attrs:[ ("budget", Prtelemetry.Json.String (Resource.to_string budget)) ]
  @@ fun () ->
  let evals = Prtelemetry.counter tele "core.cost_evaluations" in
  (* Count every placeability-penalty evaluation on the handle that the
     evaluating code runs against: the shared handle sequentially, the
     worker's private handle inside the parallel fan-out (handles are
     not domain-safe; workers merge in input order, so the total stays
     deterministic for any [jobs]). *)
  let counted_placement telemetry =
    Option.map
      (fun (p : Cost.placement) ->
        let c = Prtelemetry.counter telemetry "core.placement_evals" in
        { p with
          Cost.placement_cost =
            (fun demands ->
              Prtelemetry.Counter.incr c;
              p.Cost.placement_cost demands) })
      placement
  in
  let placement_tele = counted_placement tele in
  (* Every evaluation is counted and charged against the guard, so an
     eval cap expires after a deterministic number of evaluations. *)
  let evaluate scheme =
    Prtelemetry.Counter.incr evals;
    (match guard with Some g -> Prguard.Budget.charge g | None -> ());
    Cost.evaluate scheme
  in
  let single = Scheme.single_region design in
  let single_eval = evaluate single in
  if not (Cost.fits single_eval ~budget) then
    Error
      (Format.asprintf
         "design %s does not fit the budget %a even as a single region \
          (needs %a)"
         design.Design.name Resource.pp budget Resource.pp
         single_eval.Cost.used)
  else begin
    match
      pair_weight_of_objective
        ~configs:(Design.configuration_count design)
        options.objective
    with
    | Error message -> Error message
    | Ok pair_weight ->
      let objective = options.objective in
      (* The multilevel node set (one singleton partition per mode) is
         shared between the [Multilevel] strategy and the [Multilevel]
         ladder rung; lazy so the other strategies never pay for it. *)
      let multilevel_nodes = lazy (Multilevel.nodes design) in
      let partitions, sets =
        match (strategy : Strategy.t) with
        | Strategy.Multilevel ->
          (* Coarsening replaces the clustering + covering passes — the
             scalability wall at hundreds of modes — so the multilevel
             backend runs once over the full mode-level node set. *)
          let nodes = Lazy.force multilevel_nodes in
          (nodes, [ nodes ])
        | Strategy.Greedy | Strategy.Exact | Strategy.Anneal ->
          (* Clustering and covering poll the guard's deadline: on huge
             designs the clique structure explodes long before any
             allocator runs, and an un-guarded front-end would render
             the deadline meaningless. Eval caps are deliberately not
             consulted ({!Prguard.Budget.interrupted}), so capped runs
             stay deterministic. *)
          let stop =
            match guard with
            | None -> fun () -> false
            | Some g -> fun () -> Prguard.Budget.interrupted g
          in
          let partitions =
            Agglomerative.run ~freq_rule:options.freq_rule
              ~clique_limit:options.clique_limit ~stop ~telemetry:tele design
          in
          let sets =
            Covering.candidate_sets ~max_sets:options.max_candidate_sets
              ~stop ~telemetry:tele design partitions
          in
          (partitions, sets)
      in
      (* Second textbook fallback: when everything fits statically, zero
         reconfiguration time is trivially optimal (paper §IV-A). *)
      let static_candidate =
        let scheme = Scheme.fully_static design in
        let evaluation = evaluate scheme in
        if Cost.fits evaluation ~budget then Some (scheme, evaluation)
        else None
      in
      let admissible candidate =
        match candidate with
        | Some (_, e) when not (meets_worst_limit ~options e) -> None
        | Some _ | None -> candidate
      in
      let reject set_index reason =
        if Prtelemetry.tracing tele then
          Prtelemetry.point tele "scheme.rejected"
            ~attrs:
              [ ("set", Prtelemetry.Json.Int set_index);
                ("reason", Prtelemetry.Json.String reason) ]
      in
      let accept set_index (e : Cost.evaluation) =
        Prtelemetry.set_gauge tele "engine.best_total_frames"
          (float_of_int e.Cost.total_frames);
        note_progress e;
        if Prtelemetry.tracing tele then
          Prtelemetry.point tele "scheme.accepted"
            ~attrs:
              [ ("set", Prtelemetry.Json.Int set_index);
                ("total_frames", Prtelemetry.Json.Int e.Cost.total_frames);
                ("worst_frames", Prtelemetry.Json.Int e.Cost.worst_frames) ]
      in
      (* Baseline incumbent: the single-region scheme and — when it fits
         — the fully static one, filtered by the worst-case limit. *)
      let initial_candidate () =
        let initial =
          better ?placement:placement_tele ~objective
            (admissible (Some (single, single_eval)))
            (admissible static_candidate)
        in
        (match initial with
         | Some (_, e) ->
           Prtelemetry.set_gauge tele "engine.best_total_frames"
             (float_of_int e.Cost.total_frames);
           note_progress e
         | None -> ());
        initial
      in
      (* Per-set backend dispatch: the strategy selects which allocator
         runs inside the candidate-set fan-out. Only the greedy
         allocator searches under the weighted pair objective; the
         other backends optimise total frames and rely on the final
         objective-aware ranking (matching the ladder rungs). *)
      let promote_static = options.allocator.Allocator.promote_static in
      (* [Exact] is deliberately not placement-aware inside its search
         (branch-and-bound lower bounds would no longer be admissible
         against a penalised objective); its returned scheme still
         competes under the penalised final ranking like everyone
         else. *)
      let allocate_set ~telemetry ?guard set =
        let placement = counted_placement telemetry in
        match (strategy : Strategy.t) with
        | Strategy.Greedy ->
          Allocator.allocate ~options:options.allocator ?pair_weight
            ~telemetry ?guard ?placement ~budget design set
        | Strategy.Exact ->
          let r =
            Exact.allocate ~promote_static ~telemetry ?guard ~budget design
              set
          in
          r.Exact.scheme
        | Strategy.Anneal ->
          let aopts =
            { Anneal.default_options with Anneal.promote_static }
          in
          Anneal.allocate ~options:aopts ~telemetry ?guard ?placement ~budget
            design set
        | Strategy.Multilevel ->
          let mopts =
            { Multilevel.default_options with
              Multilevel.promote_static }
          in
          Multilevel.allocate ~options:mopts ~telemetry ?guard ?placement
            ~budget design set
      in
      let solution ?rung ?(fell_back = false) ?reason best =
        match best with
        | Some (scheme, evaluation) ->
          Ok
            { bs_scheme = scheme;
              bs_evaluation = evaluation;
              bs_partitions = List.length partitions;
              bs_sets = List.length sets;
              bs_rung = rung;
              bs_fell_back = fell_back;
              bs_reason = reason }
        | None ->
          Error
            (Format.asprintf
               "no explored scheme for %s meets the worst-case limit of %d \
                frames"
               design.Design.name
               (Option.value ~default:0 options.worst_limit))
      in
      (* The default search: allocation fan-out over the candidate sets.
         Sequentially each candidate set runs the allocator against the
         shared telemetry handle; in parallel each set gets its own
         counting handle (handles are not domain-safe), and after the
         ordered join the counters are merged in input order. The
         subsequent fold is identical in both modes, so the selected
         scheme — and every outcome field — is bit-identical for any
         [jobs].

         The guard is consulted at candidate-set boundaries: an expired
         budget skips the remaining sets (the eval cap thereby expires
         at a deterministic prefix of the set list, the key to the
         monotonicity property); in parallel mode cancellation/deadline
         are honoured across domains via [Par]'s cooperative cancel. *)
      let greedy_path ?guard () =
        let skipped = ref false in
        let exhausted () =
          match guard with
          | None -> None
          | Some g -> Prguard.Budget.exhausted g
        in
        let allocations =
          if jobs <= 1 then
            List.map
              (fun set ->
                match exhausted () with
                | Some _ ->
                  skipped := true;
                  Prtelemetry.incr tele "guard.sets_skipped";
                  `Skipped
                | None -> `Alloc (allocate_set ~telemetry:tele ?guard set))
              sets
          else begin
            let cancel, fallback =
              match guard with
              | Some g ->
                ( Some (fun () -> Prguard.Budget.interrupted g),
                  Some (fun _ -> `Cancelled) )
              | None -> (None, None)
            in
            Par.map_list ?cancel ?fallback ~telemetry:tele ~jobs
              (fun set ->
                let worker = Prtelemetry.ensure Prtelemetry.null in
                `Done (allocate_set ~telemetry:worker ?guard set, worker))
              sets
            |> List.map (function
                 | `Done (scheme, worker) ->
                   (* Fold the worker's aggregates (counters, span
                      stats, histograms) into the shared handle in
                      input order — deterministic. *)
                   Prtelemetry.merge ~into:tele worker;
                   `Alloc scheme
                 | `Cancelled ->
                   skipped := true;
                   Prtelemetry.incr tele "guard.sets_skipped";
                   `Skipped)
          end
        in
        let best, _ =
          List.fold_left
            (fun (best, set_index) allocation ->
              let best =
                match allocation with
                | `Skipped ->
                  reject set_index "budget";
                  best
                | `Alloc None ->
                  reject set_index "infeasible";
                  best
                | `Alloc (Some scheme) ->
                  let evaluation = evaluate scheme in
                  if not (meets_worst_limit ~options evaluation) then begin
                    reject set_index "worst-limit";
                    best
                  end
                  else begin
                    let merged =
                      better ?placement:placement_tele ~objective best
                        (Some (scheme, evaluation))
                    in
                    (match merged with
                     | Some (winner, e) when winner == scheme ->
                       accept set_index e
                     | Some _ | None -> reject set_index "worse");
                    merged
                  end
              in
              (best, set_index + 1))
            (initial_candidate (), 0)
            allocations
        in
        (best, !skipped)
      in
      (* Graceful-degradation ladder: attempt rungs in declared order,
         each under its own (child) budget; the first rung that runs to
         completion with an admissible incumbent supplies the answer,
         and every rung's best-so-far result is kept as a fallback. The
         single-region baseline seeds the incumbent, so an expired
         ladder still returns a feasible scheme. *)
      let ladder_path l =
        let best = ref (initial_candidate ()) in
        let best_rung =
          ref (match !best with Some _ -> Some "baseline" | None -> None)
        in
        let fell_back = ref false in
        let last_reason = ref None in
        let finished = ref false in
        let n_sets = max 1 (List.length sets) in
        let offer name scheme =
          match scheme with
          | None -> ()
          | Some scheme ->
            let evaluation = evaluate scheme in
            if meets_worst_limit ~options evaluation then begin
              let merged =
                better ?placement:placement_tele ~objective !best
                  (Some (scheme, evaluation))
              in
              (match merged with
               | Some (winner, e) when winner == scheme ->
                 best_rung := Some name;
                 Prtelemetry.set_gauge tele "engine.best_total_frames"
                   (float_of_int e.Cost.total_frames);
                 note_progress e
               | Some _ | None -> ());
              best := merged
            end
        in
        List.iter
          (fun (rung : Prguard.Ladder.rung) ->
            if not !finished then begin
              match
                match guard with
                | None -> None
                | Some g -> Prguard.Budget.exhausted g
              with
              | Some r ->
                (* Overall budget gone: remaining rungs are skipped and
                   the incumbent (at worst the baseline) stands. *)
                last_reason := Some r;
                fell_back := true;
                finished := true
              | None ->
                Prtelemetry.incr tele "guard.rungs_attempted";
                let name = Prguard.Ladder.rung_name rung.Prguard.Ladder.kind in
                let rb =
                  match guard with
                  | Some g -> Prguard.Budget.child g rung.Prguard.Ladder.budget
                  | None -> Prguard.Budget.of_spec rung.Prguard.Ladder.budget
                in
                let complete = ref true in
                let each_set f =
                  List.iter
                    (fun set ->
                      match Prguard.Budget.exhausted rb with
                      | Some _ ->
                        complete := false;
                        Prtelemetry.incr tele "guard.sets_skipped"
                      | None -> f set)
                    sets
                in
                (match rung.Prguard.Ladder.kind with
                 | Prguard.Ladder.Single_region -> offer name (Some single)
                 | Prguard.Ladder.Greedy ->
                   each_set (fun set ->
                       offer name
                         (allocate_set ~telemetry:tele ~guard:rb set))
                 | Prguard.Ladder.Anneal ->
                   (* Derive the per-set iteration count from the rung's
                      eval cap (each Metropolis step charges one eval),
                      deterministically. *)
                   let iterations =
                     match rung.Prguard.Ladder.budget.Prguard.Budget.max_evals with
                     | Some cap ->
                       max 1
                         (min Anneal.default_options.Anneal.iterations
                            (cap / n_sets))
                     | None -> Anneal.default_options.Anneal.iterations
                   in
                   let aopts =
                     { Anneal.default_options with
                       Anneal.iterations;
                       promote_static =
                         options.allocator.Allocator.promote_static }
                   in
                   each_set (fun set ->
                       offer name
                         (Anneal.allocate ~options:aopts ~telemetry:tele
                            ~guard:rb ?placement:placement_tele ~budget design
                            set))
                 | Prguard.Ladder.Multilevel ->
                   (* One V-cycle over the mode-level node set — the rung
                      ignores the candidate sets entirely (coarsening is
                      its own clustering), so a ladder can degrade into
                      multilevel at a cost independent of the set
                      fan-out. *)
                   let mopts =
                     { Multilevel.default_options with
                       Multilevel.promote_static }
                   in
                   offer name
                     (Multilevel.allocate ~options:mopts ~telemetry:tele
                        ~guard:rb ?placement:placement_tele ~budget design
                        (Lazy.force multilevel_nodes))
                 | Prguard.Ladder.Exact ->
                   (* The state budget derives from the rung's eval cap:
                      leaf evaluations never exceed expanded states, so
                      the cap cannot silently overrun. *)
                   let max_states =
                     match rung.Prguard.Ladder.budget.Prguard.Budget.max_evals with
                     | Some cap -> max 1 (cap / n_sets)
                     | None -> 2_000_000
                   in
                   each_set (fun set ->
                       let r =
                         Exact.allocate
                           ~promote_static:
                             options.allocator.Allocator.promote_static
                           ~max_states ~telemetry:tele ~guard:rb ~budget design
                           set
                       in
                       if not r.Exact.optimal then complete := false;
                       offer name r.Exact.scheme));
                (match Prguard.Budget.exhausted rb with
                 | Some _ -> complete := false
                 | None -> ());
                if !complete && Option.is_some !best then begin
                  finished := true;
                  Prtelemetry.incr tele "guard.rungs_completed"
                end
                else begin
                  fell_back := true;
                  Prtelemetry.incr tele "guard.degradations";
                  (match Prguard.Budget.exhausted rb with
                   | Some r -> last_reason := Some r
                   | None ->
                     last_reason := Some Prguard.Budget.Eval_cap)
                end
            end)
          l.Prguard.Ladder.rungs;
        solution ?rung:!best_rung ~fell_back:!fell_back ?reason:!last_reason
          !best
      in
      (match ladder with
       | Some l -> ladder_path l
       | None ->
         let best, skipped = greedy_path ?guard () in
         let reason =
           match guard with
           | None -> None
           | Some g -> Prguard.Budget.exhausted g
         in
         solution
           ~fell_back:(skipped || reason <> None)
           ?reason best)
  end

let outcome ~design ~device ~budget ~escalations bs =
  { design;
    scheme = bs.bs_scheme;
    evaluation = bs.bs_evaluation;
    device;
    budget;
    base_partitions = bs.bs_partitions;
    candidate_sets = bs.bs_sets;
    escalations;
    cost_evaluations = 0;
    placement_penalty = None;
    search = no_search_stats;
    degraded =
      { Prguard.Budget.no_budget with
        Prguard.Budget.rung = bs.bs_rung;
        degraded = bs.bs_fell_back;
        reason =
          Option.value ~default:Prguard.Budget.Completed bs.bs_reason } }

let target_label = function
  | Budget _ -> "budget"
  | Fixed device -> device.Fpga.Device.short
  | Auto -> "auto"

(* Post-solve self-check for [?verify]: re-run the cost model directly
   on the winning scheme — bypassing every incremental kernel — and
   require bit-for-bit agreement with the evaluation the search
   reported. Any delta-kernel drift surfaces here as a hard error
   instead of a silently wrong outcome. *)
let verify_outcome ~tele o =
  Prtelemetry.incr tele "verify.engine_checks";
  let fresh = Cost.evaluate o.scheme in
  if Cost.equal_evaluation fresh o.evaluation then Ok o
  else begin
    Prtelemetry.incr tele "verify.engine_failures";
    Error
      (Format.asprintf
         "verification failed for %s: reported evaluation (%a) does not \
          match the from-scratch re-derivation (%a) — incremental state \
          has diverged from the cost model"
         o.design.Design.name Cost.pp_evaluation o.evaluation
         Cost.pp_evaluation fresh)
  end

(* Fixed ceiling on the stored progress-curve samples: when the curve
   fills up, every other chronological sample is dropped and the
   sampling stride doubles, so arbitrarily long searches keep a bounded,
   deterministic, evenly-thinned curve. *)
let progress_sample_cap = 256

let solve ?(options = default_options) ?(telemetry = Prtelemetry.null)
    ?(strategy = Strategy.default) ?(jobs = 1) ?(verify = false)
    ?budget:time_budget ?ladder ?placement ~target design =
  if jobs < 1 then
    Error
      (Printf.sprintf
         "invalid jobs count %d: the number of solver domains must be at \
          least 1 (use 1 for sequential solving)"
         jobs)
  else begin
    (* Accounting-only budget when a ladder runs unguarded: the verdict
       still reports evaluations/elapsed time, and rung caps charge a
       live parent. An unlimited budget never expires, so behaviour is
       unchanged. *)
    let guard =
      match (time_budget, ladder) with
      | None, Some _ -> Some (Prguard.Budget.make ())
      | g, _ -> g
    in
    (* Determinism: an eval-capped budget (or a ladder, whose rungs carry
       eval caps) must expire at a fixed point of the candidate-set
       order, so those runs are forced onto the sequential path. A
       deadline-only budget keeps the parallel fan-out — cancellation is
       cooperative across domains. *)
    let jobs =
      match guard with
      | Some g when Prguard.Budget.has_eval_cap g || Option.is_some ladder ->
        1
      | _ -> jobs
    in
    (* Always count on a live handle so [cost_evaluations] is populated
       even when the caller did not opt into telemetry. *)
    let tele = Prtelemetry.ensure telemetry in
    let evaluations_before = cost_evaluation_counters tele in
    (* Baselines for the search-introspection deltas, mirroring
       [evaluations_before]: a caller-supplied handle can span several
       solves, so the outcome reports per-solve differences. *)
    let exact_states_before = Prtelemetry.counter_value tele "exact.states" in
    let exact_pruned_before = Prtelemetry.counter_value tele "exact.pruned" in
    (* Best-cost-over-evaluations progress curve, appended at each new
       incumbent; only when the caller traces. Capped at
       [progress_sample_cap] stored samples: on overflow the curve is
       thinned to every other chronological sample and the stride
       doubles — deterministic, and bounded however long the search
       runs. *)
    let progress = ref [] in
    let progress_len = ref 0 in
    let progress_stride = ref 1 in
    let progress_seen = ref 0 in
    let note_progress =
      if Prtelemetry.tracing tele then (fun (e : Cost.evaluation) ->
        let keep = !progress_seen mod !progress_stride = 0 in
        incr progress_seen;
        if keep then begin
          progress :=
            ( cost_evaluation_counters tele - evaluations_before,
              e.Cost.total_frames )
            :: !progress;
          incr progress_len;
          if !progress_len >= progress_sample_cap then begin
            (* The list is newest-first: keeping even {e chronological}
               indices keeps the samples whose [progress_seen] stamp is
               a multiple of the doubled stride, so future keeps stay
               aligned with the survivors. *)
            let n = !progress_len in
            progress :=
              List.filteri (fun i _ -> (n - 1 - i) mod 2 = 0) !progress;
            progress_len := List.length !progress;
            progress_stride := !progress_stride * 2
          end
        end)
      else fun _ -> ()
    in
    let result =
      Prtelemetry.with_span tele "engine.solve"
        ~attrs:
          [ ("design", Prtelemetry.Json.String design.Design.name);
            ("target", Prtelemetry.Json.String (target_label target)) ]
      @@ fun () ->
      match target with
      | Budget budget ->
        Result.map
          (outcome ~design ~device:None ~budget ~escalations:0)
          (solve_budget ~options ~strategy ~tele ~jobs ~note_progress
             ?guard ?ladder ?placement ~budget design)
      | Fixed device ->
        let budget = Fpga.Device.resources device in
        Result.map
          (outcome ~design ~device:(Some device) ~budget ~escalations:0)
          (solve_budget ~options ~strategy ~tele ~jobs ~note_progress
             ?guard ?ladder ?placement ~budget design)
      | Auto ->
        (* Smallest device fitting the single-region lower bound, then
           escalate while the partitioner cannot beat a single region. *)
        let lower_bound =
          Resource.add
            (Fpga.Tile.quantize (Design.min_region_requirement design))
            design.Design.static_overhead
        in
        (match Fpga.Device.smallest_fitting lower_bound with
         | None ->
           Error
             (Format.asprintf
                "design %s does not fit any catalogued device (needs %a)"
                design.Design.name Resource.pp lower_bound)
         | Some first ->
           let rec attempt device escalations best =
             let budget = Fpga.Device.resources device in
             let best =
               match
                 Prtelemetry.with_span tele "engine.attempt"
                   ~attrs:
                     [ ( "device",
                         Prtelemetry.Json.String device.Fpga.Device.short ) ]
                   (fun () ->
                     solve_budget ~options ~strategy ~tele ~jobs ~note_progress
                       ?guard ?ladder ?placement ~budget design)
               with
               | Error _ -> best
               | Ok result ->
                 let candidate =
                   outcome ~design ~device:(Some device) ~budget ~escalations
                     result
                 in
                 (match best with
                  | Some b
                    when (b.evaluation.Cost.total_frames,
                          b.evaluation.Cost.worst_frames)
                         <= (candidate.evaluation.Cost.total_frames,
                             candidate.evaluation.Cost.worst_frames) ->
                    Some b
                  | Some _ | None -> Some candidate)
             in
             let should_escalate =
               match best with
               | None -> true
               | Some b -> is_single_region_like b.scheme
             in
             if should_escalate then
               match Fpga.Device.next_larger device with
               | Some next ->
                 Prtelemetry.incr tele "engine.escalations";
                 if Prtelemetry.tracing tele then
                   Prtelemetry.point tele "engine.escalate"
                     ~attrs:
                       [ ( "from",
                           Prtelemetry.Json.String device.Fpga.Device.short );
                         ("to", Prtelemetry.Json.String next.Fpga.Device.short)
                       ];
                 attempt next (escalations + 1) best
               | None -> best
             else best
           in
           (match attempt first 0 None with
            | Some outcome -> Ok outcome
            | None ->
              Error
                (Format.asprintf
                   "design %s could not be partitioned on any device"
                   design.Design.name)))
    in
    let result =
      Result.map
        (fun o ->
          let degraded =
            match (time_budget, ladder) with
            | None, None -> o.degraded
            | _ ->
              let g =
                match guard with Some g -> g | None -> assert false
              in
              let pre = o.degraded in
              let v = Prguard.Budget.verdict ?rung:pre.Prguard.Budget.rung g in
              let reason =
                if v.Prguard.Budget.reason = Prguard.Budget.Completed then
                  pre.Prguard.Budget.reason
                else v.Prguard.Budget.reason
              in
              { v with
                Prguard.Budget.degraded =
                  v.Prguard.Budget.degraded || pre.Prguard.Budget.degraded;
                reason }
          in
          let cost_evaluations =
            cost_evaluation_counters tele - evaluations_before
          in
          { o with
            cost_evaluations;
            placement_penalty =
              Option.map
                (fun p -> Cost.placement_penalty p o.scheme)
                placement;
            search =
              { memo_hits = 0;
                memo_misses = cost_evaluations;
                exact_states =
                  Prtelemetry.counter_value tele "exact.states"
                  - exact_states_before;
                exact_pruned =
                  Prtelemetry.counter_value tele "exact.pruned"
                  - exact_pruned_before;
                progress = List.rev !progress };
            degraded })
        result
    in
    if verify then Result.bind result (verify_outcome ~tele) else result
  end
