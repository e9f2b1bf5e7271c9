(** Simulated-annealing region allocation — the search strategy of the
    related work the paper compares against (Montone et al. use simulated
    annealing for PR partitioning/floorplanning). Provided as an
    alternative to the greedy {!Allocator} over the same solution space
    (cluster → region/static assignments, identical cost model), so the
    two heuristics and the exact optimum ({!Exact}) can be compared like
    for like. *)

type options = {
  iterations : int;  (** Metropolis steps. Default 60_000. *)
  initial_temperature : float;  (** In frames; default 20_000. *)
  cooling : float;  (** Geometric factor per step, in (0, 1). Default
                        0.9998. *)
  seed : int;  (** Deterministic RNG seed. Default 1. *)
  promote_static : bool;  (** Allow the static move. Default [true]. *)
}

val default_options : options

val allocate :
  ?options:options ->
  ?telemetry:Prtelemetry.t ->
  ?guard:Prguard.Budget.t ->
  ?placement:Cost.placement ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  Scheme.t option
(** Best {e feasible} scheme encountered during the anneal (infeasible
    states are explored via an area-deficit penalty but never returned),
    or [None] when none was found. Deterministic in [options.seed].

    [placement] (default: none) adds the placeability penalty to every
    energy as if it were extra frames, steering the walk towards
    schemes the floorplanner can realise; omitted, the walk is
    bit-identical to the placement-unaware implementation.

    [guard] (default: none) bounds the walk: every Metropolis step is
    charged against the budget, and on deadline expiry or cancellation
    ({!Prguard.Budget.interrupted}, polled every 256 iterations) the
    walk breaks early, returning the best feasible placement found so
    far. An eval-cap-only guard never alters the walk — callers bound
    iterations via [options.iterations] instead, which is what the
    engine's degradation ladder derives from a rung's eval cap.

    Move evaluation is {e incremental}: a move reassigns one partition,
    so only the source and destination regions are re-scored (visiting
    their members through a per-region index, never the whole
    placement) and the
    global sums (total frames, quantized usage, validity) are maintained
    as exact integers — the resulting energies are bit-identical to a
    from-scratch evaluation, preserving the acceptance trajectory of the
    pre-incremental implementation. A revisited placement is proposed
    again and scores the same triple, since every sum behind it is an
    integer.

    [telemetry] (default {!Prtelemetry.null}, free): an
    ["anneal.allocate"] span; ["anneal.steps"], ["anneal.accepted"],
    ["anneal.best_updates"], ["core.cost_evaluations"] and
    ["perf.delta_evals"] counters; and an ["anneal.best"] trajectory
    event per improvement (when tracing). *)

(** Incremental energy engine, shared with {!Multilevel} refinement and
    exposed for the Prspeed property tests: drive arbitrary
    propose/commit sequences of single partitions and whole units
    (including rejected moves, which cost nothing to undo) and check
    the incrementally maintained sums against {!Energy.from_scratch}.
    Not a stable API for other callers — use {!allocate}. *)
module Energy : sig
  type t

  val create :
    ?penalty:(Fpga.Resource.t array -> int) ->
    budget:Fpga.Resource.t ->
    static_overhead:Fpga.Resource.t ->
    resources:Fpga.Resource.t array ->
    activity:Prgraph.Cfgset.t array ->
    int array ->
    t
  (** [create ~budget ~static_overhead ~resources ~activity placement]
      builds the engine over [placement] (region id per partition, [-1]
      for static; region ids are partition indices). [activity.(p)] is
      the set of configurations in which partition [p] is active
      ({!Compatibility.activity}).

      [penalty] (default: none) is the placement-awareness hook: called
      with one demand per region id in order plus the static side last
      (the {!Cost.placement} convention; empty regions contribute
      {!Fpga.Resource.zero}), its integer result joins the energy and
      the comparison total exactly like extra frames. *)

  val current : t -> float * bool * int
  (** Energy, feasibility and objective total (frames plus placeability
      penalty; just frames when no [penalty] hook is installed) of the
      committed placement. Invalid placements (two members of one
      region active in the same configuration) evaluate to
      [(infinity, false, max_int)]. *)

  val propose_unit : t -> parts:int array -> target:int -> float * bool * int
  (** Candidate evaluation of moving the unit [parts] — one or more
      partitions in strictly ascending order, all in one region or all
      static — to [target] without committing. The committed state is
      untouched, so rejecting the move requires no undo work. Costs
      O(k + (members of the source and target regions) * mask words)
      for a [k]-member unit, independent of the partition
      count (plus one call of the [penalty] hook over every region when
      one is installed).
      @raise Invalid_argument on an empty, unsorted or split unit. *)

  val commit_unit : t -> parts:int array -> target:int -> unit
  (** Install the move, reusing the snapshots of a matching prior
      {!propose_unit} when available and recomputing them otherwise. The
      committed state is exactly the one [k] single-partition commits of
      the unit's members would leave. *)

  val propose : t -> part:int -> target:int -> float * bool * int
  (** [propose t ~part ~target] is [propose_unit t ~parts:[| part |]
      ~target]. *)

  val commit : t -> part:int -> target:int -> unit
  (** [commit t ~part ~target] is [commit_unit t ~parts:[| part |]
      ~target]. *)

  val placement : t -> int array
  (** Copy of the committed placement. *)

  val from_scratch : t -> float * bool * int
  (** Ground-truth re-evaluation of the committed placement, ignoring
      all incremental state, the member index included (it finds each
      region's members by scanning the placement) — the oracle the
      property tests compare {!current} against. *)
end
