(** Complete sub-graph (clique) detection for the clustering loop.

    The agglomerative algorithm adds one link at a time and then asks for
    the sub-graphs that {e became} complete with that link; a clique
    containing the new edge is new exactly when the edge was its last
    missing link, so enumeration is restricted to cliques through the new
    edge. A monotone [keep] predicate (the configuration-support filter)
    prunes the search: once a set fails [keep], no superset is explored. *)

val new_cliques_after_link :
  ?keep:(int list -> bool) ->
  ?limit:int ->
  Wgraph.t ->
  int ->
  int ->
  int list list
(** [new_cliques_after_link g u v] enumerates every node set [s] with
    [u, v ∈ s] such that [s] is a clique of [g] and [keep s] holds (for
    [s] and, transitively, all explored subsets). Call immediately {e
    after} [Wgraph.link g u v]. Sets are sorted ascending; the result
    contains no duplicates. [limit] (default [100_000]) bounds both the
    number of cliques returned and the enumeration itself — on dense
    graphs the unexplored remainder is exponentially larger than the
    recorded prefix, so the cut-off keeps a single link's cost bounded.
    @raise Invalid_argument if [u] and [v] are not linked. *)
