(** Top-level partitioning driver (paper Fig. 6): feasibility check,
    clustering, candidate-set iteration, region-allocation search, and —
    in automatic device mode — escalation to the next larger FPGA when
    nothing better than a single region fits (paper §V). *)

type target =
  | Budget of Fpga.Resource.t
      (** A raw resource budget, like the case study's 6800 CLB / 50 BRAM
          / 150 DSP. *)
  | Fixed of Fpga.Device.t  (** The whole of a specific device. *)
  | Auto
      (** Pick the smallest device of {!Fpga.Device.sweep} that fits the
          single-region lower bound, escalating when partitioning finds
          nothing better than a single region. *)

type objective =
  | Total_frames
      (** The paper's metric: unweighted sum over all configuration
          pairs (eq. 10). *)
  | Weighted of float array array
      (** Expected reconfiguration rate under known transition statistics
          (the paper's future-work extension): entry [(i, j)] weights the
          [i -> j] transition, e.g. [Runtime.Markov.edge_rates]. Must be a
          square matrix over the design's configurations. *)

type options = {
  freq_rule : Cluster.Agglomerative.freq_rule;
  clique_limit : int;
  max_candidate_sets : int;
  allocator : Allocator.options;
  objective : objective;
  worst_limit : int option;
      (** Hard ceiling on the worst-case transition, in frames — the
          paper's real-time/safety-critical requirement that "no
          configuration transition take longer than a stipulated time"
          (eq. 11). Schemes exceeding it are discarded; [solve] fails
          when no explored scheme meets it. *)
}

val default_options : options
(** [Support] frequency rule, 32 candidate sets, default allocator
    options, [Total_frames] objective, no worst-case limit. *)

type search_stats = {
  memo_hits : int;
      (** Always [0]: the engine keeps no evaluation cache. Kept only
          because the benchmark harness ([perfbench/]) reads it. *)
  memo_misses : int;
      (** Always [cost_evaluations] (positive: the single-region scheme
          is always evaluated), so the harness's hit ratio reads a
          finite [0]. Kept only because the harness reads it. *)
  exact_states : int;  (** Branch-and-bound states expanded. *)
  exact_pruned : int;  (** Subtrees cut by the bound. *)
  progress : (int * int) list;
      (** Best-cost-over-evaluations curve: (cumulative cost
          evaluations, best total frames) at each new incumbent, in
          acceptance order. Only collected when the caller's telemetry
          handle is {e tracing}; [[]] otherwise. Capped at a fixed
          sample count (256): when the curve fills up it is thinned to
          every other chronological sample and the sampling stride
          doubles, so arbitrarily long searches keep a bounded,
          deterministic, evenly-spread curve. *)
}
(** Search introspection: counter deltas over one solve (always
    populated, like [cost_evaluations]) plus the tracing-gated
    convergence curve. Rendered by [prpart profile]. *)

type outcome = {
  design : Prdesign.Design.t;
  scheme : Scheme.t;
  evaluation : Cost.evaluation;
  device : Fpga.Device.t option;  (** Set for [Fixed] and [Auto]. *)
  budget : Fpga.Resource.t;  (** The budget actually used. *)
  base_partitions : int;  (** Clusters produced by the agglomerative step. *)
  candidate_sets : int;  (** Candidate partition sets explored. *)
  escalations : int;  (** Device escalations performed ([Auto] only). *)
  cost_evaluations : int;
      (** Cost-model invocations attributable to this solve: full
          {!Cost.evaluate} runs plus the allocator's incremental move
          evaluations. Always populated, even when the caller passed no
          telemetry handle (the engine counts on an internal one). *)
  placement_penalty : int option;
      (** Integer placeability penalty of the winning scheme under the
          caller's [?placement] hook; [None] when the solve was not
          placement-aware. [Some 0] means the estimator proved the
          scheme placeable with zero weighted waste. *)
  search : search_stats;
  degraded : Prguard.Budget.verdict;
      (** How the guard shaped the answer. Equal to
          {!Prguard.Budget.no_budget} ([guarded = false]) when neither
          [budget] nor [ladder] was passed; otherwise [guarded = true]
          and [degraded] reports whether the scheme is a best-so-far
          answer (budget expired, sets skipped, a ladder rung escalated
          past or truncated) rather than a full run, with the expiry
          [reason], the producing ladder [rung] (["baseline"] for the
          seeded single-region/static incumbent), and the evaluation /
          wall-clock usage. *)
}

val solve :
  ?options:options ->
  ?telemetry:Prtelemetry.t ->
  ?strategy:Strategy.t ->
  ?jobs:int ->
  ?verify:bool ->
  ?budget:Prguard.Budget.t ->
  ?ladder:Prguard.Ladder.t ->
  ?placement:Cost.placement ->
  target:target ->
  Prdesign.Design.t ->
  (outcome, string) result
(** Errors are infeasibility reports (the design cannot fit the target,
    even as a single region). The returned scheme always fits the
    budget: in the worst case it is the single-region scheme.

    [placement] (default: none) makes the whole solve placement-aware:
    the hook's integer placeability penalty joins the objective inside
    the [Greedy]/[Anneal]/[Multilevel] searches (and their ladder
    rungs) {e and} the engine's final candidate ranking, so schemes the
    floorplanner cannot realise lose to realisable ones of comparable
    cost. [Exact] keeps its admissible frame-only bounds internally but
    still competes under the penalised final ranking. The hook must be
    pure and deterministic — it is called from parallel worker domains
    — and is typically {!Prfloorplan}'s estimator for the target
    device. Penalty evaluations are counted on the
    ["core.placement_evals"] telemetry counter, and the winning
    scheme's penalty is reported in [outcome.placement_penalty].
    Omitted, every output is bit-identical to the placement-unaware
    engine. Under [Auto] the caller's single hook is used unchanged for
    every attempted device, which is rarely meaningful — resolve the
    device first (the flow layer does).

    [strategy] (default {!Strategy.default}, i.e. [Greedy] — the
    historical pipeline, bit-for-bit) selects the search backend that
    runs inside the candidate-set fan-out: [Greedy] the agglomerative +
    greedy allocator, [Exact] branch-and-bound, [Anneal] simulated
    annealing, [Multilevel] the coarsen→partition→refine backend
    ({!Multilevel}) that scales to 50–500-module designs. Under
    [Multilevel] the clustering/covering passes are skipped entirely:
    the backend runs once over the mode-level node set
    ({!Multilevel.nodes}). All strategies share the feasibility
    precondition, baseline incumbents, worst-case limit, objective-aware
    ranking, guard/ladder composition and verification; only the greedy
    allocator {e searches} under a [Weighted] objective (the others
    optimise total frames and rely on the final ranking, exactly like
    the ladder rungs).

    [jobs < 1] is rejected with a descriptive [Error] (never undefined
    [Par] behaviour).

    [budget] (default: none) bounds the solve — wall-clock deadline,
    cost-evaluation cap and/or cooperative cancel token
    ({!Prguard.Budget}). On expiry the engine {e always terminates with
    the best feasible scheme found so far} (at worst the single-region
    baseline) and reports the expiry in [outcome.degraded] instead of
    running to completion or failing. Determinism contract: an
    eval-cap-only budget expires at candidate-set boundaries, in a fixed
    order, so capped runs are fully reproducible (and force [jobs = 1]);
    deadlines and cancellation are polled cooperatively everywhere —
    including across [Par] domains — and are inherently timing
    dependent. With no budget at all, behaviour is bit-for-bit identical
    to an unguarded solve.

    [ladder] (default: none) runs the graceful-degradation escalation
    policy ({!Prguard.Ladder}, typically [exact → anneal → greedy →
    single-region]) instead of the plain candidate-set search: rungs are
    attempted in order under per-rung child budgets and the first rung
    that completes cleanly with an admissible incumbent supplies the
    answer; every rung's best-so-far result is kept as a fallback. A
    [multilevel] rung runs one {!Multilevel} V-cycle over the mode-level
    node set (independent of the candidate sets), so a ladder can
    degrade {e into} multilevel instead of straight to the baseline.
    Recorded as ["guard.rungs_attempted"] / ["guard.rungs_completed"] /
    ["guard.degradations"] / ["guard.sets_skipped"] counters and in
    [outcome.degraded.rung]. Ladder runs force [jobs = 1] (rung eval
    caps must expire deterministically).

    [verify] (default [false]) re-runs the cost model from scratch on
    the winning scheme — bypassing the incremental kernels — and
    fails with an explanatory [Error] unless the reported
    evaluation matches bit-for-bit ({!Cost.equal_evaluation}). Counted
    as ["verify.engine_checks"] / ["verify.engine_failures"]. The full
    independent-oracle suite (covering, conflicts, floorplan, bitstream,
    transitions) lives in the [Prverify] library, which layers on top of
    this self-check.

    [jobs] (default 1) fans the candidate-set allocations out across
    that many domains ({!Par}). The parallel path is {e bit-identical}
    to the sequential one: the ordered map preserves input order and
    the winning-scheme fold runs sequentially after the join, so the
    outcome — scheme, evaluation and all counts — does not depend on
    [jobs]. Each domain works against a private counting handle
    (merged afterwards), so per-allocator spans and trace events are
    not recorded when [jobs > 1]; counters are.

    Every scheme the engine compares is scored by a direct
    {!Cost.evaluate}, counted as ["core.cost_evaluations"] and charged
    against the guard.

    [telemetry] (default {!Prtelemetry.null}, free): an ["engine.solve"]
    span with one ["engine.solve_budget"] child per budget attempted
    (wrapped in ["engine.attempt"] under [Auto]); the instrumentation of
    the clustering, covering and allocation passes it triggers; an
    ["engine.escalations"] counter and ["engine.escalate"] trace points;
    ["scheme.accepted"] / ["scheme.rejected"] trace points per candidate
    set; and an ["engine.best_total_frames"] gauge tracking the
    incumbent. *)

val is_single_region_like : Scheme.t -> bool
(** True when the scheme has exactly one region and nothing promoted to
    static — the escalation trigger. *)
