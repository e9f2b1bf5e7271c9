(** A small dense weighted undirected graph over integer nodes, grown one
    edge at a time — the network the agglomerative clustering operates on.
    Weights are fixed at creation (co-occurrence counts); links are added
    incrementally in descending weight order by the clustering loop. *)

type t

val create : n:int -> weight:(int -> int -> int) -> t
(** [create ~n ~weight] builds a graph on nodes [0..n-1] with no links.
    [weight] must be symmetric and non-negative; it is sampled once per
    unordered pair. @raise Invalid_argument on negative [n] or weight. *)

val weight : t -> int -> int -> int
val linked : t -> int -> int -> bool

val link : t -> int -> int -> unit
(** Connect two distinct nodes. Linking an already-linked pair or a node to
    itself raises [Invalid_argument]. *)

val link_count : t -> int

val neighbours : t -> int -> int list
(** Linked neighbours, ascending. *)

val common_neighbours : t -> int -> int -> int list

val min_internal_weight : t -> int list -> int
(** Minimum edge weight over pairs of the list — the paper's frequency
    weight for sub-graphs with more than one edge.
    @raise Invalid_argument on a list with fewer than two nodes. *)

val positive_pairs_desc : t -> (int * int * int) list
(** All unordered pairs with positive weight as [(i, j, w)], [i < j],
    sorted by descending weight then ascending [(i, j)] — the clustering
    iteration order. *)
