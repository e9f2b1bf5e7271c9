(** The pair-merge rule (paper eqs. 1/6 and 8): the one place that says
    what merging two compatible region candidates costs.

    A node is a set of pairwise-compatible base partitions that share a
    region. The store keeps, per node, its activity (a {!Prgraph.Cfgset.t}
    stored in place), the number of configurations in which it is
    active, its integer conflict count (configuration pairs whose
    residents differ), its area as whole tiles per kind, and its area in
    frames. Tile counts are rounded-up quotients, monotone in the
    primitive count, so [Tile.quantize (Resource.max a b)] is the
    component-wise max of the two quantized areas: a merged node's tiles
    are the max of its halves'. Two nodes may merge iff their activities
    are disjoint; then every (active in [a], active in [b]) configuration
    pair reconfigures, so the merged conflict count is
    [ca + cb + |A|·|B|] and the merge changes the reconfiguration time
    by [fm·(ca + cb + |A|·|B|) − fa·ca − fb·cb] frames.

    The greedy allocator's live regions, the V-cycle's coarse nodes and
    partner statistics, and the exact search's open groups all live in
    this store. Loops over pairs run here, so that no caller makes a
    per-pair cross-module call (the dev build passes [-opaque], see
    DESIGN.md §12.1). *)

type t

val create : words:int -> int -> t
(** [create ~words n]: [n] empty nodes over activity sets of [words]
    mask words ({!Prgraph.Cfgset.words_for}). *)

val set_leaf :
  t -> int -> mask:Prgraph.Cfgset.t -> resources:Fpga.Resource.t -> unit
(** Node [k] becomes one partition alone: its activity and raw area,
    no conflicts. *)

val leaves :
  words:int ->
  masks:Prgraph.Cfgset.t array ->
  resources:Fpga.Resource.t array ->
  t
(** One leaf node per partition. *)

val size : t -> int
val words : t -> int
val copy : t -> t

val copy_node : src:t -> int -> dst:t -> int -> unit
(** [copy_node ~src p ~dst k] overwrites node [k] of [dst] with node [p]
    of [src]. *)

val absorb : dst:t -> int -> src:t -> int -> unit
(** [absorb ~dst a ~src b]: node [a] of [dst] absorbs node [b] of [src]
    under the rule above (activities are assumed disjoint). *)

val disjoint : t -> int -> int -> bool
(** The two nodes are never co-active, so they may merge. *)

val mask : t -> int -> Prgraph.Cfgset.t
(** A fresh copy of node [k]'s activity. *)

val conflicts : t -> int -> int
val frames : t -> int -> int

val quantized : t -> int -> Fpga.Resource.t
(** Node [k]'s area in whole tiles, as primitives. *)

val merged_quantized : t -> int -> int -> Fpga.Resource.t
(** The area of the merged node, as {!quantized}. *)

val merged_frames : t -> int -> int -> int
(** The area in frames of the merged node. *)

val merged_conflicts : t -> int -> int -> int
(** [ca + cb + |A|·|B|]. *)

val merge_dtime : t -> int -> int -> int
(** The reconfiguration-time delta of merging [a] and [b], in frames. *)

val pairs :
  t ->
  alive:bool array ->
  cap_clb:float ->
  cap_bram:float ->
  cap_dsp:float ->
  int array * int array * int array
(** One coarsening round's candidate merges: every pair [i < j] of live,
    disjoint nodes whose merged {!quantized} area is within the cap of
    every kind, ascending in [(i, j)], as
    [(dtime, saved, ij)]: the {!merge_dtime}, the frames the merge saves
    ([fa + fb − fm]), and [i * size + j]. *)

val cross : t -> weights:float array -> configs:int -> int -> int -> float
(** The weighted cross term of a merge: the sum of
    [weights.(i * configs + j)] over [i] active in [a] and [j] active in
    [b], both ascending, in that order. *)
