(** A partitioning scheme: an assignment of a priority-ordered list of base
    partitions to reconfigurable regions and (optionally) to the static
    area. This is the object the allocator searches over and the cost
    model evaluates; the three textbook schemes (fully static, single
    region, one module per region) are expressible in the same form, so
    every comparison in the paper uses one cost model. *)

type placement = Static | Region of int

type t = private {
  design : Prdesign.Design.t;
  partitions : Cluster.Base_partition.t array;  (** Priority order. *)
  placement : placement array;
  region_count : int;
  analysis : Compatibility.t;
  members : int list array;
      (** Per region, its partition indices in ascending priority. *)
  frames : int array;  (** Per region, {!region_frames}. *)
  resident : int array array;
      (** [resident.(c).(r)]: the partition active in region [r] under
          configuration [c], or [-1] when [c] leaves the region idle.
          Built by {!make} in its validation pass; read-only. *)
}

val make :
  Prdesign.Design.t ->
  (Cluster.Base_partition.t * placement) list ->
  (t, string list) result
(** Validates: region indices must be dense ([0 .. region_count-1], each
    non-empty), every configuration mode must have a provider, and no
    region may have two active partitions in the same configuration.
    The same pass indexes the scheme, so the structural queries below
    answer in O(1). *)

val make_exn :
  Prdesign.Design.t -> (Cluster.Base_partition.t * placement) list -> t

(** {1 Structure} *)

val region_members : t -> int -> int list
(** Partition indices placed in region [r], ascending priority. *)

val static_members : t -> int list

val region_resources : t -> int -> Fpga.Resource.t
(** Component-wise maximum over the region's partitions (paper eq. 2) —
    only one partition is resident at a time. *)

val region_frames : t -> int -> int
(** Tile-quantised frames of the region (paper eqs. 3–6). *)

val static_resources : t -> Fpga.Resource.t
(** Sum of static partitions' resources plus the design's static
    overhead — static clusters all coexist. *)

val reconfigurable_resources : t -> Fpga.Resource.t
(** Sum over regions of the tile-quantised region resources. *)

val total_resources : t -> Fpga.Resource.t

val active_partition : t -> config:int -> region:int -> int option
(** The partition resident in a region under a configuration, or [None]
    when the configuration does not use the region (content is then a
    don't-care and no reconfiguration is required).
    @raise Invalid_argument on an out-of-range region or configuration. *)

val initial_resident : t -> initial:int -> int -> int
(** The partition the initial full bitstream leaves in region [r]: the
    active partition when configuration [initial] uses the region, else
    the region's first-listed partition (the fabric must hold
    something). The runtime simulator and the HDL top level share this
    rule.
    @raise Invalid_argument on an out-of-range region or configuration. *)

(** {1 Reference schemes} (paper §IV-A) *)

val single_region : Prdesign.Design.t -> t
(** Every configuration's mode set becomes one cluster; all clusters share
    the single region, which must be large enough for the largest
    configuration. Every transition reconfigures the whole region. *)

val one_module_per_region : Prdesign.Design.t -> t
(** One region per module, each hosting the module's modes as singleton
    clusters, sized for the largest mode. *)

val fully_static : Prdesign.Design.t -> t
(** Every mode in the static area; zero reconfiguration time, maximum
    area. *)

val describe : t -> string
(** Multi-line human-readable allocation table (like paper Tables III/V). *)

val pp : Format.formatter -> t -> unit
