(** The telemetry collector: monotonic span timers, named counters,
    gauges and latency histograms, and a structured event stream, all
    hanging off one handle that is threaded through the partitioning
    pipeline as an optional argument.

    Three operating points:

    - {!null} — the shared dead handle every instrumented function
      defaults to. All operations short-circuit on a single boolean
      test; nothing is allocated, timed or counted.
    - a handle over {!Sink.null} — counters, gauges and span statistics
      aggregate (cheap atomic/float mutations) but no events are built
      or emitted and registry histograms stay {!Histogram.dead}.
      {!Prcore.Engine} uses this internally so its [cost_evaluations]
      outcome field is always populated.
    - a handle over a memory/file sink — full event stream plus live
      registry histograms, exportable as JSONL ({!to_jsonl},
      {!write_jsonl}), as Prometheus text ({!exposition}) and as a
      human summary table ({!summary}).

    Domain safety: counters are atomic, every registry table sits
    behind a per-handle mutex, and histograms carry their own locks, so
    instrumented code inside [Par] workers may share one handle — or
    record into private handles that are folded back with {!merge}.
    [with_span] nesting depth is still tracked per handle, so give each
    worker domain its own handle when span {e events} matter. *)

type t

module Counter : sig
  type t
  (** A named monotonic counter. Obtained from {!val-counter} once
      (outside hot loops) and then bumped with {!incr} — one atomic
      fetch-and-add, no lookup, safe across domains. *)

  val incr : ?by:int -> t -> unit
  (** No-op on counters of the {!null} handle. [by] defaults to 1. *)

  val value : t -> int
end

val null : t
(** The dead handle: not {!enabled}, never records anything. *)

val create : ?clock:(unit -> float) -> Sink.t -> t
(** A live collector over [sink]. [clock] (default [Sys.time], the
    monotone per-process CPU clock) supplies span timestamps in
    seconds; event times are relative to creation. *)

val enabled : t -> bool
(** [false] only for {!null}: counters/gauges/spans aggregate. *)

val tracing : t -> bool
(** [true] when events actually reach a sink — callers use this to skip
    building attribute lists for per-node events on the hot path, and
    the registry histograms are only live under it. *)

val ensure : t -> t
(** [ensure t] is [t] when enabled, otherwise a fresh counting-only
    handle over {!Sink.null} — how the engine guarantees itself live
    counters without the caller opting in. *)

(** {1 Spans} *)

val with_span : t -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: a [Begin] event, the call, and a
    guaranteed matching [End] event (also on exceptions) carrying the
    duration in an [ms] attribute. Durations aggregate per name (count,
    total, extrema, and a log-bucketed {!Histogram} for percentiles)
    for {!summary}. On a dead handle this is exactly [f ()]. *)

(** {1 Counters and gauges} *)

val counter : t -> string -> Counter.t
(** The named counter, created at zero on first use. On {!null} a
    shared dead counter is returned. *)

val incr : t -> ?by:int -> string -> unit
(** Convenience lookup-and-bump for cold paths. *)

val counter_value : t -> string -> int
(** 0 for unknown names. *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option

(** {1 Histograms} *)

val histogram : t -> string -> Histogram.t
(** The named registry histogram, created on first use — but only when
    {!tracing}; otherwise {!Histogram.dead}, so per-move hot paths
    (the allocator observes one delta per evaluated move) cost nothing
    under the default counting handle. Bind once outside the loop. *)

val live_histogram : t -> string -> Histogram.t
(** Like {!histogram} but gated only on the handle being enabled, not on
    a tracing sink: a counting handle (null sink) still records.  For
    coarse-grained observations — one per request or job, never one per
    move — where a long-running service wants percentiles with bounded
    memory.  {!Histogram.dead} on a disabled handle. *)

val observe : t -> string -> float -> unit
(** Convenience lookup-and-observe for cold paths. *)

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold a worker handle's aggregates into a parent: counters add,
    histograms merge bucket-wise, span statistics combine (calls,
    totals, extrema, capped samples, latency histograms), and gauges
    fill only names the parent has not set. Events are not moved —
    worker handles run over null sinks. Deterministic given
    deterministic worker aggregates; no-op unless both handles are
    live. *)

(** {1 Events} *)

val point : t -> ?attrs:(string * Json.t) list -> string -> unit
(** Emit an instantaneous [Point] event (when {!tracing}). *)

val flush : t -> unit
(** Emit one [Counter]/[Gauge] snapshot event per counter and gauge
    (sorted by name, for determinism). Call once, after the traced
    work, before exporting. *)

(** {1 Export} *)

val events : t -> Event.t list
(** Buffered events (memory sinks only). *)

val to_jsonl : t -> string
(** All buffered events, one JSON object per line. *)

val write_jsonl : t -> string -> (unit, string) result
(** Write {!to_jsonl} to a path; [Error] carries the [Sys_error]. *)

val exposition : t -> string
(** Prometheus text exposition: every counter, gauge, registry
    histogram and span-duration histogram as a [# TYPE]-annotated
    metric family. Names are prefixed with [prpart_] and sanitised
    ([.]/[-] become [_]); histogram buckets are cumulative with the
    mandatory [+Inf] bucket plus [_sum]/[_count] rows. Deterministic:
    families and buckets are emitted in sorted order. Empty string on
    {!null}. *)

type span_stats = {
  span_name : string;
  calls : int;
  total_s : float;
  min_s : float;
  max_s : float;
  samples : float list;  (** Up to 512 durations, most recent first. *)
  latency : Histogram.t;  (** Log-bucketed durations (seconds). *)
}

val span_list : t -> span_stats list
(** Aggregated span timings, sorted by descending total time. *)

val counters_list : t -> (string * int) list
(** Sorted by name. *)

val gauges_list : t -> (string * float) list
(** Sorted by name. *)

val summary : t -> string
(** Human-readable tables (via {!Report.Table}): per-span latency
    (calls, total/mean ms and deterministic p50/p90/p99/max from the
    span histograms) with an ASCII latency histogram
    ({!Report.Histogram}) for spans with enough samples, then counters,
    gauges and registry-histogram percentiles. Empty sections are
    omitted. *)
