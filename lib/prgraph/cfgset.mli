(** Sets of configuration indices as word-array bitmasks: the one
    encoding of "the configurations in which a mode or a base partition
    is active" that the connectivity matrix, the compatibility analysis
    and the search backends share.

    The representation is transparent so that hot loops can read the
    words in their own module (the dev build passes [-opaque], so no
    cross-module call is inlined). Layout: a set over [configs]
    configurations is an array of {!words_for}[ configs] words, and
    configuration [c] is in the set when bit [c mod 63] of word [c / 63]
    is set. Bits past [configs - 1] are always clear. Binary operations
    expect two sets of the same length. *)

type t = int array

val words_for : int -> int
(** [words_for configs] is the word count of a set over [configs]
    configurations: [max 1 ((configs + 62) / 63)]. *)

val create : int -> t
(** [create configs] is the empty set over [configs] configurations. *)

val add : t -> int -> unit
(** [add s c] puts configuration [c] into [s] in place. *)

val mem : t -> int -> bool

val inter : t -> t -> t
(** A fresh set: the configurations in both. *)

val disjoint : t -> t -> bool
(** No configuration is in both. *)

val popcount : t -> int
(** Number of configurations in the set. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every configuration of [src] to [dst]. *)

val iter : (int -> unit) -> t -> unit
(** Applies the function to each configuration of the set, ascending. *)

val elements : t -> int list
(** The configurations of the set, ascending. *)
