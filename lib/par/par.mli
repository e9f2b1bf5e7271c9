(** Bounded Domain-based parallelism for the partition search and the
    evaluation sweep (OCaml 5 multicore, no external dependencies).

    The central primitive is a deterministic {e ordered map}: results
    come back indexed by their input position regardless of which domain
    computed them or in which order they finished, so a parallel run is
    bit-identical to the sequential one whenever the per-item function
    is itself deterministic and items do not share mutable state.

    Callers that fan work out repeatedly (the synthetic sweep solves
    ~1000 designs) should create one {!Pool.t} and reuse it; one-shot
    callers can use {!map_array}/{!map_list}, which create and shut
    down a pool per call.

    Graceful fallback: [jobs <= 1] (or a single-item input) never
    spawns a domain — the map runs inline on the calling domain, making
    [--jobs 1] exactly the sequential code path.

    Profiling: a pool created with a live telemetry handle keeps one
    stats slot per domain (tasks, stolen items, busy wall time, queue
    wait) and {!Pool.profile} flushes them as [par.domain<i>.*] gauges,
    [par.tasks]/[par.items] counters, a [par.utilisation] gauge and a
    [par.queue_wait_ms] histogram — the raw material for the per-domain
    table in [prpart profile]. With the default {!Prtelemetry.null}
    handle no clock is ever read. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1 — the
    CLI's default for [--jobs]. *)

module Pool : sig
  type t
  (** A bounded pool of [jobs - 1] worker domains plus the calling
      domain. Workers block on a condition variable between maps; the
      pool owner must not run two maps concurrently (the engine and
      sweep drive it from a single domain). *)

  val create : ?telemetry:Prtelemetry.t -> jobs:int -> unit -> t
  (** [create ~jobs ()] spawns [max 0 (jobs - 1)] worker domains.
      [jobs] is clamped to at least 1. With a live [telemetry] handle
      the pool records per-domain stats (see {!profile}); timing reads
      the wall clock once per batch task, never per item. *)

  val jobs : t -> int

  val map_array :
    ?cancel:(unit -> bool) ->
    ?fallback:('a -> 'b) ->
    t ->
    ('a -> 'b) ->
    'a array ->
    'b array
  (** Ordered parallel map: [map_array t f xs] equals
      [Array.map f xs] element-for-element. Work is distributed by
      atomic index stealing; the calling domain participates. If any
      [f xs.(i)] raises, the exception of the {e lowest} such index is
      re-raised after all items finish — deterministic error
      behaviour.

      [cancel]/[fallback] implement cooperative cancellation across the
      worker domains: once [cancel ()] reports [true] (it is polled
      immediately before each item starts, on whichever domain steals
      it), remaining items are computed with [fallback] instead of [f] —
      typically a cheap sentinel so the caller can tell skipped items
      apart. Items already in flight run to completion; the result
      array keeps its full shape and order. Without [fallback] the
      [cancel] flag is ignored. *)

  val map_list :
    ?cancel:(unit -> bool) ->
    ?fallback:('a -> 'b) ->
    t ->
    ('a -> 'b) ->
    'a list ->
    'b list
  (** [map_list t f xs] equals [List.map f xs]; see {!map_array}. *)

  val profile : t -> unit
  (** Flush the per-domain stats into the pool's telemetry handle:
      [par.domain<i>.busy_s]/[.idle_s]/[.wait_s]/[.items]/[.tasks]
      gauges (slot 0 is the calling domain), cumulative [par.tasks]/
      [par.items] counters and a [par.utilisation] gauge. Call after
      the maps, before shutdown. No-op without live telemetry. *)

  val shutdown : t -> unit
  (** Terminate and join the worker domains. Idempotent. Maps after
      shutdown run inline (single-domain fallback). *)
end

val map_array :
  ?cancel:(unit -> bool) ->
  ?fallback:('a -> 'b) ->
  ?telemetry:Prtelemetry.t ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** One-shot ordered map over a temporary pool ([jobs <= 1] runs
    inline without spawning anything). [cancel]/[fallback] as in
    {!Pool.map_array}; they are honoured on the inline path too. With a
    live [telemetry] handle the pool profile is flushed
    ({!Pool.profile}) before the pool shuts down. *)

val map_list :
  ?cancel:(unit -> bool) ->
  ?fallback:('a -> 'b) ->
  ?telemetry:Prtelemetry.t ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** List analogue of {!map_array}. *)
