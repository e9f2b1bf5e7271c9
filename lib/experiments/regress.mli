(** Bench regression tracking: diff two BENCH metric documents under
    per-metric tolerance rules.

    Pure comparison logic — the bench front-end loads two entries of
    [BENCH_history.jsonl] (or a pinned baseline file) and feeds the
    parsed JSON in; [make perf-compare] fails when {!regressed} is
    non-empty. Kept benchmark-free so thresholds are unit-testable. *)

type direction =
  | Higher_better
  | Lower_better
  | Unchanged  (** Any change beyond the tolerance, either way, regresses. *)

type rule = {
  pattern : string;
      (** Substring matched against the flattened dotted key
          (e.g. ["speedup"] covers ["sweep.speedup"]). First matching
          rule wins. *)
  direction : direction;
  tolerance_pct : float;  (** Allowed harmful change, in percent. *)
}

val default_rules : rule list
(** Exact rules first: [bit_identical], [oracle_clean] and
    [deterministic] must stay true, and the search's evaluation counts
    ([moves_evaluated] anywhere, [allocator.delta_evals],
    [guard.evals_used]), the V-cycle's [.levels], [.merges] and
    [.trials], and the deterministic outputs [total_frames] and
    [refine_moves] must not change at all. Then throughput up
    ([moves_per_sec]), latency down ([ms_per_run], [ns_per_run],
    [seconds]), [speedup] and [hit_rate] up, multilevel
    convergence ([refine_passes]) and quality ([gap_vs_anneal_pct])
    down — with generous tolerances (10–50 %) because bench hosts are
    noisy; the target is step changes, not jitter. *)

val flatten : Prtelemetry.Json.t -> (string * float) list
(** Numeric leaves as dotted keys in document order; booleans count as
    1 (true) and 0 (false); strings and arrays are skipped. *)

type verdict = Within | Improved | Regressed | Missing

type finding = {
  key : string;
  baseline : float;
  latest : float;  (** NaN when [Missing]. *)
  change_pct : float;
  verdict : verdict;
}

val compare :
  ?rules:rule list ->
  baseline:Prtelemetry.Json.t ->
  latest:Prtelemetry.Json.t ->
  unit ->
  finding list
(** One finding per baseline metric covered by a rule, in baseline
    document order. A metric absent from [latest] is [Missing] (treated
    as a regression — a renamed metric must move its baseline); metrics
    new in [latest] are ignored; near-zero baselines are [Within]
    unless the rule's tolerance is zero and the value moved the wrong
    way. *)

val regressed : finding list -> finding list
(** The failures: [Regressed] plus [Missing]. *)

val render : finding list -> string
(** Table of metric/baseline/latest/change/verdict plus a one-line
    summary. *)
