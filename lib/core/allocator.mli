(** Region allocation search (paper §IV-C, second half).

    Starting from the candidate partition set with every base partition in
    its own region — the static-equivalent allocation with minimum
    reconfiguration time — the search repeatedly applies one of two moves:

    - {b merge} two compatible regions (always shrinks area, never reduces
      reconfiguration time), used to squeeze the design into the budget;
    - {b promote} a region's partitions to the static area (eliminates
      that region's reconfiguration cost, usually at an area cost), the
      paper's "move modes into the static region when possible".

    While over budget the search picks the move that most reduces the
    resource deficit (ties broken by least added reconfiguration time);
    once within budget it keeps applying time-reducing promotions. The
    greedy pass is restarted from each of the most promising first moves
    and the best feasible scheme wins. *)

type options = {
  max_restarts : int;
      (** Number of alternative first moves to try in addition to the pure
          greedy pass. Default 8. *)
  promote_static : bool;
      (** Enable static promotion (disable for the ablation). Default
          [true]. *)
}

val default_options : options

val scalar : Fpga.Resource.t -> float
(** Area in frame-equivalents: each primitive weighted by the frames
    per primitive of its tile kind ({!Fpga.Tile.frames_per_tile} over
    the primitives a tile holds). The search's deficit and area
    tie-break measure, shared with {!Anneal} and {!Multilevel}. *)

val deficit : budget:Fpga.Resource.t -> Fpga.Resource.t -> float
(** {!scalar} of the per-kind overrun of [budget]; [0.] iff the usage
    fits. *)

val allocate :
  ?options:options ->
  ?pair_weight:(int -> int -> float) ->
  ?telemetry:Prtelemetry.t ->
  ?memo:Cost.evaluation Memo.t ->
  ?guard:Prguard.Budget.t ->
  ?placement:Cost.placement ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  Scheme.t option
(** Best feasible scheme found for one candidate partition set (priority
    order preserved), or [None] when no explored allocation fits the
    budget. Schemes are compared by total reconfiguration frames, then
    worst-case frames, then area.

    [placement] (default: none) makes the descent placement-aware: the
    integer placeability penalty delta of every candidate move joins its
    time delta, and restart outcomes rank on the penalised objective, so
    allocations the floorplanner cannot realise lose to realisable ones.
    Omitted, the search is bit-identical to the placement-unaware
    implementation.

    [guard] (default: none) bounds the search: each move evaluation is
    charged against the budget, and on deadline expiry or cancellation
    ({!Prguard.Budget.interrupted}) the current greedy descent stops and
    remaining restarts are skipped — the best scheme found so far (if
    any) is still returned. An eval-cap-only guard never alters the
    search (only {!Prguard.Budget.interrupted}, which ignores the cap,
    is polled here), keeping capped runs deterministic; the cap is
    enforced at the engine's candidate-set boundaries.

    Move scoring is {e incremental}: per-region conflict weights are
    maintained and a merge is costed from the cached values of its two
    operands plus the cross term over the configuration pairs whose
    residents actually change, never by rescanning residency columns.
    Every candidate move lives in a pair table (flat arrays: whether
    each pair can merge, its merged quantized area and its time delta;
    each region's promotion delta and raw area), built once per call
    and copied into each restart. A merge rescores the survivor's pairs
    that stay compatible (at most [n] cross terms) and kills the
    absorbed region's; a promotion kills the promoted region's. A descent step is then one
    allocation-free O(n²) scan that adds the only usage-dependent term,
    the deficit, and keeps the first strict minimum in the order the
    moves were once listed, so the step order and tie-breaks are those
    of the original sorted move list (see {!Search.descend} and
    DESIGN.md's Performance section).

    [pair_weight i j] weights the cost of configurations [i] and [j]
    requiring different region contents (unordered pairs, [i < j]). The
    default unit weight yields the paper's total reconfiguration time;
    passing long-run transition rates (see [Runtime.Markov.edge_rates],
    symmetrised) optimises the expected reconfiguration rate instead —
    the paper's future-work extension. The weights are flattened into a
    dense array once per search, so weighted objectives pay no closure
    overhead on the hot path.

    [memo] (default: none) is the engine-level evaluation cache, keyed
    by canonical content signatures ({!Memo.scheme_signature}): the
    final evaluation of each distinct restart outcome is stored there,
    so the engine's re-evaluation of the returned scheme — and any
    other candidate set converging to the same allocation — is a cache
    hit. Restart outcomes are additionally deduplicated internally, so
    converging restarts never rebuild or re-score a scheme.

    [telemetry] (default {!Prtelemetry.null}, free): an
    ["alloc.allocate"] span; ["alloc.moves_evaluated"],
    ["alloc.merges_accepted"], ["alloc.promotions"], ["alloc.restarts"],
    ["core.cost_evaluations"], ["perf.delta_evals"],
    ["perf.cache_hits"] and ["perf.cache_misses"] counters; and an
    ["alloc.best"] event each time a restart improves the incumbent
    (when tracing). *)

(** Search internals, exposed for the Prspeed property tests: drive
    arbitrary move sequences and check the incrementally maintained
    conflict weights against a from-scratch recomputation. Not a stable
    API for production callers — use {!allocate}. *)
module Search : sig
  type state

  type move = Merge of int * int | Promote of int

  val initial :
    ?pair_weight:(int -> int -> float) ->
    Prdesign.Design.t ->
    Cluster.Base_partition.t list ->
    state option
  (** [None] when the partition list is empty or does not cover the
      design. *)

  val moves : ?promote_static:bool -> state -> move list
  (** Applicable moves of the current state. *)

  val apply : state -> move -> unit

  val evaluate :
    state -> Fpga.Resource.t -> move -> float * Fpga.Resource.t
  (** Delta evaluation of a move: (reconfiguration-time delta, resulting
      usage), given the current usage. *)

  val used : state -> Fpga.Resource.t

  val demands : state -> Fpga.Resource.t array
  (** The state's {!Cost.placement} demand array. *)

  val moved_demands : state -> move -> Fpga.Resource.t array
  (** The demand array after [move], without applying it. *)

  type descent = {
    applied : move list;  (** In application order. *)
    evaluated : int;  (** Moves evaluated, summed over the steps. *)
    merges_evaluated : int;  (** The merges among them. *)
    feasible : bool;  (** The final state fits the budget. *)
  }

  val descend :
    ?options:options ->
    ?placement:Cost.placement ->
    ?observe:(float -> unit) ->
    budget:Fpga.Resource.t ->
    state ->
    descent
  (** One greedy descent from [state] (mutated), as {!allocate} runs it
      for each restart. [observe] sees every evaluated move's time
      delta, in scan order. *)

  val first_moves :
    ?options:options ->
    ?placement:Cost.placement ->
    ?observe:(float -> unit) ->
    charge:(moves:int -> merges:int -> unit) ->
    state ->
    move list
  (** The alternative first moves {!allocate} restarts from, best
      first: the moves of [state] ranked by (time delta, area
      of the resulting usage), ties in {!moves}' order, cut to
      [options.max_restarts]. [charge] is told once how many moves
      (and merges among them) the ranking evaluated; [observe] sees
      each move's time delta. *)

  val alive : state -> int -> bool

  val region_conflicts : state -> int -> float
  (** Cached (incrementally maintained) conflict weight of region [r]. *)

  val recompute_conflicts : state -> int -> float
  (** From-scratch recomputation over region [r]'s residency column —
      the reference the cache is tested against. *)

  val merge_delta : state -> int -> int -> float
  (** Conflict weight of the merged region predicted by the delta
      kernel. *)

  val merge_full : state -> int -> int -> float
  (** Conflict weight of the merged region recomputed from the merged
      column. *)

  val region_count : state -> int

  val signature : state -> string
  (** {!Memo.grouping_signature} of the live allocation. *)

  val to_scheme : state -> Scheme.t
end
