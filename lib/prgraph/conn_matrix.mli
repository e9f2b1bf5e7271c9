(** The connectivity matrix of a design (paper §IV-C): one row per
    configuration, one column per mode; element [(i, j)] is set when mode
    [j] is active in configuration [i]. Each column is kept as the
    {!Cfgset.t} of the configurations using the mode, so node and edge
    weights for the clustering graph and cluster supports are popcounts
    of column intersections. *)

type t

val make : Prdesign.Design.t -> t
val configurations : t -> int
val modes : t -> int

val mem : t -> config:int -> mode:int -> bool
(** @raise Invalid_argument on out-of-range indices. *)

val node_weight : t -> int -> int
(** Number of configurations using the mode (columnar sum). A mode that no
    configuration uses — the paper's "mode 0" — has weight 0 and takes no
    part in clustering. *)

val edge_weight : t -> int -> int -> int
(** [edge_weight t i j] is the number of configurations in which modes [i]
    and [j] are both active. [edge_weight t i i = node_weight t i]. *)

val support : t -> int list -> int
(** Number of configurations containing {e every} mode of the list — the
    frequency with which the cluster occurs. [support t [] ] is the number
    of configurations. *)

val supported : t -> int list -> bool
(** [support t modes > 0]. *)

val config_modes : t -> int -> int list
(** Modes active in a configuration, ascending. *)

val active_modes : t -> int list
(** Modes with positive node weight, ascending — the clustering nodes. *)
