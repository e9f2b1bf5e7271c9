(** Exact region allocation by branch-and-bound, for small candidate sets.

    Enumerates every partition of the candidate set into compatible region
    groups plus an optional static set (canonical set-partition order, so
    each allocation is visited once), pruning branches whose committed
    reconfiguration cost already exceeds the incumbent. Exponential in the
    candidate-set size — intended for validating the greedy
    {!Allocator} (optimality-gap tests and the ablation bench), not for
    production runs on large designs. *)

type result = {
  scheme : Scheme.t option;
      (** Best feasible allocation, or [None] when nothing fits. *)
  optimal : bool;
      (** False when the state budget was exhausted before the search
          space was covered; the scheme (if any) is then only the best
          incumbent. *)
  states : int;  (** Assignments expanded. *)
}

val allocate :
  ?promote_static:bool ->
  ?max_states:int ->
  ?telemetry:Prtelemetry.t ->
  ?guard:Prguard.Budget.t ->
  budget:Fpga.Resource.t ->
  Prdesign.Design.t ->
  Cluster.Base_partition.t list ->
  result
(** [allocate ~budget design candidate_set]. Defaults: promotion enabled,
    [max_states = 2_000_000]. Candidate partitions keep their priority
    order (it defines activity, as in {!Allocator}). Schemes are compared
    by total reconfiguration frames, then worst-case frames, then area in
    frames.

    Group costing is {e incremental}, by the {!Merge} rule: a fresh
    group contributes zero conflicts and extending a group with a
    compatible partition adds exactly [|new active| * |group active|]
    conflicting pairs (active sets of co-resident partitions are
    disjoint), so the running bound moves by {!Merge.merge_dtime}.
    Residency columns are built only at a leaf whose total is
    competitive, for the worst-case tie-break.

    [guard] (default: none) bounds the search: leaf evaluations are
    charged against the budget, and deadline expiry or cancellation
    ({!Prguard.Budget.interrupted}, polled every 1024 states) truncates
    the DFS exactly like an exhausted [max_states] — the incumbent (if
    any) is returned with [optimal = false]. An eval-cap-only guard
    never alters the search; bound [max_states] instead, which is what
    the engine's degradation ladder derives from a rung's eval cap.

    [telemetry] (default {!Prtelemetry.null}, free): an
    ["exact.allocate"] span; ["exact.states"], ["perf.delta_evals"] and
    ["core.cost_evaluations"] (leaf evaluations) counters. *)
