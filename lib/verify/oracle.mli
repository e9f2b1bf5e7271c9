(** Independent invariant oracles for every stage of the partitioning
    pipeline.

    {b Independence contract.} Each oracle re-derives its invariant
    from scratch — greedy activity resolution, residency, frame counts,
    resource sums, transition costs and floorplan coverage are all
    reimplemented here over the raw design/scheme data. Oracles may read
    validated inputs ({!Prdesign.Design} accessors, {!Fpga} arithmetic,
    {!Floorplan.Layout} topology) and exercise the codecs they check
    ({!Bitgen.Bitstream.serialise}/[parse]), but they may {b not} call
    the optimised code paths whose results they validate: no
    {!Prcore.Memo}, no allocator/annealer incremental kernels, no
    {!Prcore.Cost.evaluate}, no {!Prcore.Compatibility}. A drift bug in
    those layers therefore cannot hide itself from the oracles.

    Scheme-shaped invariants come in two forms: a high-level entry
    taking a validated {!Prcore.Scheme.t}, and a raw {!grouping} entry
    that accepts arbitrary (possibly corrupt) member lists — the form
    the mutation-kill tests feed with seeded corruptions that
    {!Prcore.Scheme.make} would reject. *)

(** {1 Raw groupings} *)

type place = Static | Region of int

type member = {
  modes : int list;  (** Flat mode ids of the cluster. *)
  place : place;
}

type grouping = member list
(** A scheme stripped to its raw content, in priority order. *)

val grouping_of_scheme : Prcore.Scheme.t -> grouping

(** {1 Design well-formedness} ([V-DSN-00x], stage ["design"]) *)

val check_design : Prdesign.Design.t -> Diagnostic.t list
(** [V-DSN-001] empty configuration; [V-DSN-002] module/mode reference
    out of range; [V-DSN-003] connectivity-matrix asymmetry (or a
    diagonal disagreeing with the column sums, or a weight disagreeing
    with a direct co-occurrence recount); [V-DSN-004] (warning) mode
    used by no configuration; [V-DSN-005] (warning) two configurations
    with identical mode sets. *)

(** {1 Covering and conflict-freedom} ([V-CVR-00x], stage ["cover"]) *)

val check_grouping : Prdesign.Design.t -> grouping -> Diagnostic.t list
(** [V-CVR-001] a configuration mode no active member provides;
    [V-CVR-002] empty or non-dense region numbering; [V-CVR-003]
    malformed member (empty or out-of-range mode list, negative
    region); [V-CVR-004] a region hosting two members that are
    simultaneously active in one configuration; [V-CVR-005] (warning)
    a member active in no configuration. *)

val check_scheme : Prcore.Scheme.t -> Diagnostic.t list
(** {!check_grouping} over {!grouping_of_scheme}. *)

(** {1 Cost re-derivation} ([V-CST-00x], stage ["cost"]) *)

val derive_evaluation : Prcore.Scheme.t -> Prcore.Cost.evaluation
(** From-scratch re-derivation of the full cost evaluation (residency,
    frames, conflicts, totals, resource sums) without touching
    {!Prcore.Cost}. *)

val check_cost :
  Prcore.Scheme.t -> Prcore.Cost.evaluation -> Diagnostic.t list
(** Compares a {e reported} evaluation against {!derive_evaluation},
    field by field: [V-CST-001] total frames, [V-CST-002] worst-case
    frames, [V-CST-003] per-region frames, [V-CST-004] resource totals,
    [V-CST-005] per-region conflict counts. A mismatch means memoised
    or incremental state diverged from the cost model. *)

val check_budget :
  Prcore.Scheme.t -> budget:Fpga.Resource.t -> Diagnostic.t list
(** [V-CST-006] the re-derived resource usage exceeds the budget. *)

(** {1 Floorplan} ([V-FLP-00x], stage ["floorplan"]) *)

val derive_demands : Prcore.Scheme.t -> Floorplan.Placer.demand array
(** Tile demands re-derived from the scheme: one entry per region (max
    member resources) plus a final static entry. *)

val check_floorplan :
  layout:Floorplan.Layout.t ->
  demands:Floorplan.Placer.demand array ->
  Floorplan.Placer.rect option array ->
  Diagnostic.t list
(** [V-FLP-001] two placements overlap; [V-FLP-002] a placement exceeds
    the fabric bounds; [V-FLP-003] a placement's window covers fewer
    tiles of some kind than its demand; [V-FLP-004] a non-empty demand
    left unplaced; [V-FLP-005] a zero-volume demand carries a non-empty
    rectangle (it must get {!Floorplan.Placer.empty_rect}). *)

val check_placement :
  Prcore.Scheme.t ->
  layout:Floorplan.Layout.t ->
  Floorplan.Placer.outcome ->
  Diagnostic.t list
(** {!check_floorplan} over {!derive_demands}, plus [V-FLP-004] for
    every index the placer itself reported as failed. *)

val derive_placement_penalty :
  layout:Floorplan.Layout.t -> Prcore.Scheme.t -> int
(** Independent re-derivation of {!Floorplan.Estimate}'s integer
    placeability penalty for the scheme's re-derived demands on
    [layout] — direct column scans, no code shared with the
    estimator. *)

val check_placement_penalty :
  Prcore.Scheme.t ->
  layout:Floorplan.Layout.t ->
  reported:int ->
  Diagnostic.t list
(** [V-FLP-006] the placement penalty a placement-aware solve reported
    ({!Prcore.Engine.outcome}[.placement_penalty]) does not equal
    {!derive_placement_penalty}'s value. *)

(** {1 Bitstream repository} ([V-BIT-00x], stage ["bitstream"]) *)

val check_serialised :
  context:string ->
  ?region:int ->
  ?frames:int ->
  ?variant:string ->
  bytes ->
  Diagnostic.t list
(** Round-trips serialised bitstream bytes through
    {!Bitgen.Bitstream.parse}: [V-BIT-002] parse or CRC failure (or a
    re-serialisation that is not byte-identical); [V-BIT-003] frame
    count differing from [frames]; [V-BIT-004] region/variant metadata
    differing from the expectations. *)

val check_repository : Bitgen.Repository.t -> Diagnostic.t list
(** [V-BIT-001] a (region, member) pair with no repository entry (or an
    entry for an unknown pair); [V-BIT-002..004] per-entry round-trip
    checks (each stream is serialised once and its parse compared with
    the in-memory stream) with the expected frame counts re-derived
    from the scheme;
    the full bitstream must carry the device's total frame count. *)

(** {1 Transition reachability} ([V-TRN-00x], stage ["transition"]) *)

val transition_table : Prcore.Scheme.t -> int array array
(** From-scratch all-pairs transition cost, in frames. *)

val check_transitions :
  ?repository:Bitgen.Repository.t -> Prcore.Scheme.t -> Diagnostic.t list
(** [V-TRN-001] a configuration pair whose transition needs a partial
    bitstream the repository does not hold (only with [repository]);
    [V-TRN-002] {!Prcore.Cost.transition_matrix} disagreeing with the
    from-scratch {!transition_table}; [V-TRN-003] an asymmetric matrix
    or non-zero diagonal. *)
