(** Activity analysis for an ordered base-partition list.

    For every configuration, the analysis resolves which partitions are
    {e active} — loaded into their regions because the configuration needs
    modes from them. Resolution is greedy set cover per configuration:
    repeatedly take the partition covering the most still-uncovered modes
    of the configuration (ties broken by priority order). For disjoint
    partitions this reduces to "the partition containing the mode", the
    paper's covering semantics; for overlapping clusters (e.g. the
    single-region scheme, whose clusters are whole configurations) it
    selects the best-matching cluster.

    Resolution is indexed: each mode maps to the partitions holding it,
    and each partition keeps a count of the configuration's still-uncovered
    modes it holds. One configuration costs the sum of its modes'
    index-list lengths plus picks × touched partitions (those holding at
    least one of its modes).

    Two base partitions are {e compatible} — may share a reconfigurable
    region — iff no configuration activates both (paper §IV-C; for
    disjoint partitions this coincides with the paper's mode-co-occurrence
    rule). *)

type t

val analyse : Prdesign.Design.t -> Cluster.Base_partition.t array -> t
(** Build the activity analysis for partitions taken in priority order.
    Partition mode ids must be valid for the design. *)

val design : t -> Prdesign.Design.t
val partitions : t -> Cluster.Base_partition.t array

val covers_design : t -> bool
(** True when every mode of every configuration belongs to some listed
    partition (equivalently: greedy resolution covers every
    configuration). *)

val active : t -> bp:int -> config:int -> bool

val active_configs : t -> int -> int list
(** Configurations in which partition [bp] is active, ascending. *)

val compatible : t -> int -> int -> bool
(** [compatible t p q] — no configuration activates both [p] and [q].
    [compatible t p p = false] whenever [p] is active anywhere. *)

val compatible_all : t -> int list -> bool
(** Pairwise compatibility of a whole group. *)
