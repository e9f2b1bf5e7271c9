(** The reconfiguration simulator: replay an adaptation sequence over a
    partitioned system, tracking actual region contents (a region keeps
    its bitstream while idle, so a reconfiguration happens only when an
    incoming configuration needs a {e different} resident than the one
    physically loaded), with a fallible fetch/program path driven by a
    {!Prfault.Injector} and a bounded-retry recovery loop.

    Every region load becomes a loop of (fetch the partial bitstream,
    program it through the ICAP), where either operation can fault.
    Failed attempts are retried with exponential backoff and
    deterministic jitter; a corrupted image is invalidated from the
    on-chip cache and re-fetched; an aborted programming pass leaves the
    region's content garbage (forcing a reload even if the old partition
    is wanted later). When a load exhausts its retries — or blows the
    per-transition time budget — the configured
    {!Prfault.Recovery.policy} decides between failing the run, dropping
    the adaptation step, or degrading to a designated safe
    configuration.

    {b Fault-free replay}: with an inactive injector (the default) no
    load fails, so the run always returns [Ok] and its statistics are
    the plain stateful replay: the fault machinery only ever adds
    accounting on top. Every step reads the scheme's resident table
    ({!Prcore.Scheme.t}), so a step costs O(regions).

    {b Determinism}: all randomness (fault draws, backoff jitter)
    derives from [fault.spec.seed], so two runs of the same scenario
    yield {!Prfault.Reliability.equal} summaries. *)

type config = {
  spec : Prfault.Injector.spec;  (** What faults, how often. *)
  policy : Prfault.Recovery.policy;
  retry : Prfault.Recovery.retry;
  safe_config : int option;
      (** Degraded-mode configuration for
          {!Prfault.Recovery.Fallback_safe_config}; defaults to the
          run's [initial]. *)
}

val default_config : config
(** Inactive injector, [Fallback_safe_config], {!Prfault.Recovery.default_retry},
    safe config = initial. *)

type outcome = {
  stats : Manager.stats;
      (** Logical adaptation accounting — each region load counted once
          on success. Dropped steps contribute nothing; safe-config
          fallback loads do count. *)
  fetch : Fetch.report option;
      (** Physical fetch/ICAP accounting when [memory] was given:
          includes the time burnt by failed attempts, while
          [reconfigurations] counts successful loads only. *)
  reliability : Prfault.Reliability.summary;
  final_config : int;
      (** Where the walk ended (differs from the last sequence element
          after drops or fallbacks). *)
  operations : int;  (** Fault-injection operations drawn. *)
}

type failure = {
  failed_step : int;  (** 1-based step of the fatal fault. *)
  failed_region : int;
  kind : Prfault.Injector.kind;
  reliability : Prfault.Reliability.summary;
      (** Accounting up to the abort. *)
}

val render_failure : failure -> string
(** One-line description, e.g.
    ["reconfiguration failed at step 12 (PRR2, icap-crc-error)"]. *)

val simulate :
  ?icap:Fpga.Icap.t ->
  ?memory:Fetch.memory ->
  ?cache:Fetch.cache ->
  ?trace:(Manager.event -> unit) ->
  ?telemetry:Prtelemetry.t ->
  ?fault:config ->
  Prcore.Scheme.t ->
  initial:int ->
  sequence:int list ->
  (outcome, failure) result
(** Start in configuration [initial] (its full bitstream is not
    counted; idle regions hold {!Prcore.Scheme.initial_resident}) and
    visit [sequence] in order, under fault injection.

    Without [memory] the external fetch path is not modelled: no fetch
    operations are drawn (only programming faults apply) and
    [outcome.fetch] is [None]. [cache] is only consulted when [memory]
    is present.

    [trace] observes every step; the event's
    [to_config] is the {e requested} target even when the step is
    dropped or degraded, and [regions_reconfigured]/[frames] cover the
    successful loads only.

    [Error] is returned only under the [Abort] and [Retry_then_fail]
    policies; [Skip_transition] and [Fallback_safe_config] always
    complete.

    [telemetry] (default {!Prtelemetry.null}): a ["runtime.simulate"]
    span with the recovery policy as its ["policy"] attribute;
    ["runtime.steps"], ["runtime.transitions"],
    ["runtime.frames"], ["fault.injected"], ["fault.retries"],
    ["fault.recovered"], ["fault.dropped_transitions"] and
    ["fault.fallbacks"] counters; ["fault.added_seconds"] and
    ["fault.mttr_seconds"] gauges; a ["runtime.total_seconds"] gauge;
    and, when tracing, a ["runtime.transition"] point per configuration
    change and a ["fault.inject"] point per injected fault.

    @raise Invalid_argument on out-of-range configuration indices
    (including [fault.safe_config]) or an invalid injector/retry
    specification. *)
