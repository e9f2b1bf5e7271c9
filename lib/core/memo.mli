(** Canonical scheme signatures.

    A {e signature} is a compact byte string identifying an allocation
    up to region renumbering: the sorted static set plus the region
    member groups, each group sorted and the groups ordered
    lexicographically. Members are encoded by their {e mode content},
    so signatures are stable across candidate partition sets of the
    same design. They are the canonical scheme identity of the serve
    reply signature, the fuzzer, the bench and the allocator's restart
    deduplication. *)

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
