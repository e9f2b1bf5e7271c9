(** Multilevel coarsen→initial-partition→uncoarsen+refine region
    allocation, in the style of multilevel hypergraph partitioners
    (mt-KaHyPar): the backend that scales the engine to 50–500-module
    designs where branch-and-bound and annealing blow their budgets
    (DESIGN.md §12).

    Modes (as singleton base partitions) are the hypergraph nodes; the
    configuration co-occurrence structure supplies the hyperedge
    weights (the reconfiguration-time delta of merging two compatible
    nodes into one region, exactly the greedy allocator's move
    ranking). {b Coarsening} runs heavy-edge matching rounds — only
    compatible (never co-active) nodes may match, so every coarse node
    is a valid region by construction — with balance enforced on the
    full CLB/BRAM/DSP vector via a per-resource epsilon-tightness
    ceiling. The {b initial partition} places each coarse node in its
    own region. {b Uncoarsening} then replays the levels finest-ward,
    {b refining} at each level by moving whole units (coarse nodes,
    then progressively finer sub-units, finally single partitions)
    between regions, into fresh regions, or to static.

    Refinement reuses the {!Anneal.Energy} incremental kernel: a trial
    moving a [k]-member unit costs O(k + (members of the source and
    target regions) * configs + configs^2), independent of the design
    size, and refined schemes stay exactly costed. Each level first
    ranks every unit's candidate partners, O(units^2) mask tests. A
    move is accepted only when it strictly reduces
    (budget deficit, total reconfiguration frames) lexicographically —
    deficit-reducing moves restore feasibility, and once feasible the
    exact evaluated cost is monotonically non-increasing (the property
    the Prscale tests pin).

    Fully deterministic: no randomness, all ties broken by node
    index. *)

type options = {
  coarsest : int;
      (** Stop coarsening at this many nodes (the initial region-count
          target). Default 8. *)
  refine_passes : int;  (** Max refinement passes per level. Default 4. *)
  partner_limit : int;
      (** Candidate target regions per unit, ranked by hyperedge
          affinity. Default 8. *)
  exhaustive_limit : int;
      (** Below this many nodes every occupied region is a candidate
          target (closes the optimality gap on small designs).
          Default 48. *)
  promote_static : bool;  (** Allow moves to the static area. Default
                              [true]. *)
}

val default_options : options

val nodes : Prdesign.Design.t -> Cluster.Base_partition.t list
(** The multilevel node set: one singleton base partition per mode
    used by at least one configuration, weighted by support, in mode-id
    order. Skips the clustering/covering passes entirely — the first
    scalability wall of the default pipeline. *)

type stats = {
  levels : int;  (** Coarsening rounds performed. *)
  merges : int;  (** Node merges across all rounds. *)
  passes : int;  (** Refinement passes across all levels. *)
  moves : int;  (** Accepted refinement moves. *)
  trials : int;  (** Move trials (cost-model invocations). *)
  first_feasible_total : int option;
      (** Total frames when feasibility was first reached — the
          pre-refinement cost the monotonicity property compares the
          final cost against. *)
  final_total : int option;  (** Total frames of the returned scheme. *)
}

val allocate :
  ?options:options ->
  ?telemetry:Prtelemetry.t ->
  ?memo:Cost.evaluation Memo.t ->
  ?guard:Prguard.Budget.t ->
  ?placement:Cost.placement ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  Scheme.t option
(** Best feasible scheme of one multilevel V-cycle over the given node
    set (typically {!nodes}), or [None] when no feasible placement was
    reached. Deterministic — bit-identical for any [?jobs] at the
    engine level, since the backend is sequential and runs once.

    [placement] (default: none) threads the placeability penalty into
    every refinement energy (via {!Anneal.Energy}), so refinement
    trades frames against floorplan realisability; omitted, the search
    is bit-identical to the placement-unaware implementation.

    [guard] (default: none): every move trial is charged; deadline
    expiry or cancellation ({!Prguard.Budget.interrupted}, polled every
    32 trials) stops refinement and returns the best committed
    placement. An eval-cap-only guard never alters the search (the cap
    is enforced at the engine's boundaries), keeping capped runs
    deterministic.

    [memo] (default: none): the returned scheme's evaluation is stored
    under its canonical {!Memo.scheme_signature}, making the engine's
    re-evaluation a hit.

    [telemetry] (default {!Prtelemetry.null}, free): a
    ["multilevel.allocate"] span with a ["multilevel.coarsen"] child
    and, per refined level, ["multilevel.partners"] and
    ["multilevel.refine"] children carrying the level's [units];
    ["multilevel.merges"],
    ["multilevel.refine_moves"], ["multilevel.refine_passes"],
    ["core.cost_evaluations"] and ["perf.delta_evals"] counters. *)

val allocate_stats :
  ?options:options ->
  ?telemetry:Prtelemetry.t ->
  ?memo:Cost.evaluation Memo.t ->
  ?guard:Prguard.Budget.t ->
  ?placement:Cost.placement ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  Scheme.t option * stats
(** {!allocate} plus the per-run search statistics — the hooks the
    QCheck properties and the bench report use. *)

val rank_partners :
  limit:int ->
  masks:int array array ->
  score:(int -> int -> int) ->
  int list array
(** [rank_partners ~limit ~masks ~score] lists, for every unit [u], the
    at most [limit] units [v <> u] whose activity bitmasks are disjoint
    from [u]'s, least [(score u v, v)] first — the candidate partners
    refinement proposes. [score] must be symmetric: each unordered pair
    is scored once. [limit <= 0] gives no partners. Exposed for the
    Prscale differential test. *)

val coarsen :
  ?options:options ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  int list array list
(** The coarsening phase of {!allocate_stats} alone: each matching
    round's snapshot, coarsest first (the order refinement replays
    them). A snapshot lists the round's coarse nodes in node order, each
    as its members in merge order. [[]] when the partition list is
    empty, does not cover the design, or no round merged anything.
    Exposed for the Prscale differential test. *)

val unit_scores :
  masks:int array array ->
  resources:Fpga.Resource.t array ->
  int list array ->
  int ->
  int ->
  int
(** [unit_scores ~masks ~resources units u v] is the partner score
    refinement ranks [units] by: the reconfiguration-time delta of
    merging units [u] and [v] into one region, given each partition's
    activity bitmask (63 configurations per word) and resources. Each
    unit absorbs its members in list order. Exposed for the Prscale
    differential test. *)
