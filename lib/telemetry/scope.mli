(** Prscope: profiling reports over a recorded {!Telemetry} handle.

    Pure rendering — every function reads aggregates (events, span
    statistics, counters, gauges) that already exist on the handle, so
    reports can also be produced after the fact from a loaded trace.
    The [prpart profile] verb composes {!report}; the pieces are
    exposed separately for tests and custom front-ends. *)

type node = {
  name : string;
  calls : int;  (** Begin events merged at this tree position. *)
  total_s : float;  (** Inclusive wall time (children + self). *)
  children : node list;  (** First-seen order; same-named siblings merge. *)
}

val span_tree : Event.t list -> node list
(** Rebuild the call tree from Begin/End events. Unbalanced traces
    degrade gracefully: orphan End events are dropped, unclosed Begin
    events keep zero duration. *)

val self_s : node -> float
(** Inclusive time minus the children's inclusive time (clamped at 0). *)

val render_tree : node list -> string
(** Indented span tree with calls, total ms, self ms and share of the
    grand total. *)

val hot_paths : node list -> (string * int * float) list
(** Spans ranked by accumulated self time (name, calls, self seconds),
    descending; ties break by name. *)

val render_hot : ?limit:int -> node list -> string
(** The top [limit] (default 10) hot paths as a table. *)

val render_percentiles : Telemetry.t -> string
(** Deterministic p50/p90/p99/max per span, from the span histograms. *)

val render_exact_depths : Telemetry.t -> string
(** States/pruned/prune-rate table from [exact.depth<d>.states]/
    [.pruned] counters; empty string when absent. *)

val render_domains : Telemetry.t -> string
(** Busy/idle/items/tasks per domain from the [par.domain<i>.*] gauges
    the pool flushes, headed by [par.utilisation] when present. When no
    pool ran, a single caller-domain row is synthesised from the
    [engine.solve] span so the report shape is stable. *)

val render_progress : (int * int) list -> string
(** Best-cost-over-evaluations table (pairs of cumulative cost
    evaluations and best total frames); empty string for []. *)

val report : Telemetry.t -> string
(** The full profile: span tree, hot paths, span percentiles, the
    branch-and-bound depth table, per-domain table. Empty sections are
    omitted. *)

val check_exposition : string -> (unit, string) result
(** Structural validation of a Prometheus text page ({!Telemetry.exposition}):
    sample lines parse, histogram buckets are cumulative, and each
    family's [+Inf] bucket equals its [_count]. *)
