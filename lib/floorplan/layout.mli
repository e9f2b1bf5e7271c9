(** Columnar device layout (paper §IV-B, Fig. 4): a Virtex-5 device is a
    grid of configuration rows by resource columns; every column holds one
    tile kind over its full height. The catalogue stores per-row column
    counts; this module fixes a concrete left-to-right column ordering
    with the BRAM and DSP columns spread evenly through the CLB fabric,
    as on real parts. *)

type t

val make : Fpga.Device.t -> t
val device : t -> Fpga.Device.t
val rows : t -> int
val width : t -> int

val kind_at : t -> int -> Fpga.Tile.kind
(** Tile kind of column [c].
    @raise Invalid_argument when out of range. *)

val columns_of_kind : t -> Fpga.Tile.kind -> int list

val count_in_window : t -> first:int -> width:int -> Fpga.Tile.kind -> int
(** Columns of a kind within [first, first+width), in O(1) from
    per-kind column prefix sums built by {!make}.
    @raise Invalid_argument when the window exceeds the device. *)

val pp : Format.formatter -> t -> unit
(** One character per column ([C], [B], [D]) — a compact floorplan map. *)
