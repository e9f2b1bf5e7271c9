(** Canonical scheme signatures and the transposition table behind the
    Prspeed memoisation layer.

    A {e signature} is a compact byte string identifying an allocation
    up to region renumbering: the sorted static set plus the region
    member groups, each group sorted and the groups ordered
    lexicographically. Two signature families exist:

    - {!scheme_signature} / {!grouping_signature} encode members by
      their {e mode content}, so they are stable across candidate
      partition sets of the same design — the form the engine-level
      evaluation cache needs (different candidate sets frequently
      converge to the same allocation);
    - {!placement_signature} encodes a raw region-id-per-partition
      array after canonical renumbering — the cheap per-search form the
      annealer's transposition table uses (the partition list is fixed
      within one search).

    Tables are exact (full string keys, no lossy hashing) and bounded:
    when [capacity] entries are reached the table is generationally
    cleared rather than evicted entry-by-entry. Hits and misses are
    mirrored into the [perf.cache_hits] / [perf.cache_misses] telemetry
    counters of the handle supplied at {!create}.

    Tables are {b not} thread-safe; the parallel engine gives each
    domain its own table and merges the counters afterwards. *)

type 'v t

val create :
  ?telemetry:Prtelemetry.t -> ?capacity:int -> ?tag:string -> unit -> 'v t
(** [capacity] defaults to 65536 entries. [telemetry] defaults to
    {!Prtelemetry.null} (counting disabled, table still functional).

    [tag] (default: none) namespaces every key under ["<tag>!"]: the
    engine tags its evaluation caches with the search strategy, so a
    scheme evaluated under one strategy can never satisfy a lookup made
    under another — multilevel and exact results cannot alias even when
    their canonical signatures coincide. {!absorb} copies raw
    (already-namespaced) keys, so folding a worker table into a shared
    one preserves the origin tags. *)

val tag : 'v t -> string option
(** The namespace tag supplied at {!create}, if any. *)

val find : ?depth:int -> 'v t -> string -> 'v option
(** Counts one hit or one miss. With [depth] (the engine passes the
    candidate-set index) and a {e tracing} telemetry handle, the lookup
    is additionally attributed to lazily-created
    [memo.depth<d>.hits]/[.misses] counters — the source of the
    depth-resolved hit-rate table in [prpart profile]. Free on
    non-tracing handles. *)

val add : 'v t -> string -> 'v -> unit
(** Clears the table first when it is full. Replaces existing
    bindings. *)

val find_or_add : ?depth:int -> 'v t -> string -> (unit -> 'v) -> 'v
(** [find] then [add] of the thunk's result on a miss. *)

val hits : 'v t -> int

val misses : 'v t -> int

val length : 'v t -> int

val iter : (string -> 'v -> unit) -> 'v t -> unit
(** Iterate over the live entries (unspecified order). *)

val absorb : into:'v t -> 'v t -> unit
(** [absorb ~into t] adds every entry of [t] to [into] (replacing equal
    keys) — how the parallel engine folds per-domain tables back into
    the shared one after a join. Does not touch hit/miss counts. *)

(** {1 Signatures} *)

val scheme_signature : Scheme.t -> string
(** Canonical content signature of a built scheme. Equal for schemes
    that place the same mode clusters into the same groups, whatever
    the region numbering or partition order. *)

val grouping_signature :
  parts:Cluster.Base_partition.t array ->
  statics:int list ->
  groups:int list list ->
  string
(** The same signature computed from search-internal state — partition
    indices into [parts], statics and per-group member lists in any
    order — without building the scheme. Agrees with
    {!scheme_signature} of the resulting scheme. *)

val placement_signature : int array -> string
(** Signature of a region-id-per-partition placement ([-1] = static)
    after canonical renumbering by first appearance. Only valid within
    a fixed partition list. *)
