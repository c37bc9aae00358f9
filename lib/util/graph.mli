(** Small dense directed-graph toolkit over vertices [0 .. n-1].

    Shared by the history-relation machinery (precedence DAGs, transitive
    closure) and the share-graph analysis (reachability, path enumeration). *)

type t
(** Mutable digraph with adjacency stored both as lists (iteration) and a
    bitset matrix (O(1) edge queries, fast closure). *)

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val n_vertices : t -> int

val add_edge : t -> int -> int -> unit
(** Idempotent.  Inserting a new edge clears {!is_closed}. *)

val mem_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors in insertion order (deduplicated). *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** [iter_succ t u f] calls [f] on each successor of [u], most recently
    inserted first, without allocating. *)

val edges : t -> (int * int) list
(** All edges, lexicographically sorted. *)

val n_edges : t -> int

val copy : t -> t
(** Keeps {!is_closed}. *)

val union : t -> t -> t
(** Edge union of two graphs on the same vertex set.
    @raise Invalid_argument on size mismatch. *)

val transitive_closure : t -> t
(** New graph whose edges are reachability (by at least one edge) in the
    input; its successor lists are ascending.  An acyclic input is closed
    row by row in reverse topological order, O(n + m * n / wordsize) for
    [m] input edges; a cyclic one by Warshall, O(n³ / wordsize). *)

val is_closed : t -> bool
(** The graph's edges are known to be transitively closed: true for an
    edgeless graph and for the result of {!transitive_closure} until
    {!add_edge} inserts a new edge.  A relation restricted to a vertex
    subset stays closed, so a consumer may skip its own closure. *)

val is_acyclic : t -> bool

val topological_sort : t -> int list option
(** [Some order] listing all vertices such that every edge goes forward;
    [None] when the graph has a cycle.  Deterministic: smallest-index-first
    among ready vertices. *)

val reachable_from : t -> int -> Bitset.t
(** Vertices reachable from the source by one or more edges (the source
    itself is included only if it lies on a cycle through itself). *)

val has_path : t -> int -> int -> bool
(** True iff a non-empty path exists. *)

val transitive_reduction_edges : t -> (int * int) list
(** For an acyclic graph: the edges [(u,v)] such that no alternative path
    [u → … → v] of length ≥ 2 exists.  @raise Invalid_argument on cyclic
    input. *)

val simple_paths :
  ?max_paths:int -> t -> src:int -> dst:int -> int list list
(** All simple paths from [src] to [dst] (each as a vertex list, endpoints
    included), depth-first order, truncated at [max_paths] (default 10_000).
    Exponential in general; intended for small analytic graphs. *)

(** Undirected view helpers (an undirected graph is stored with both edge
    directions). *)

val add_undirected_edge : t -> int -> int -> unit

val components : t -> int list list
(** Weakly-connected components (treats every edge as undirected), each
    sorted, sorted by smallest member. *)
