(** Strongly-connected components and the condensation DAG.

    The interprocedural phases schedule their fixpoints over the call
    graph's SCC condensation: each component is a maximal set of mutually
    recursive routines, and the condensation — one vertex per component,
    an edge when any member calls into another component — is acyclic, so
    components can be processed in topological order with iteration
    confined to the inside of each component.  The same decomposition,
    applied to each component's nodes in each phase's node dependency
    graph, orders the nodes inside a component ({!decomposer}).

    Graphs are in compressed sparse row form: the out-edges of vertex [u]
    are [adj.(off.(u)) .. adj.(off.(u + 1) - 1)], where [off] has one
    entry more than there are vertices.

    The computation is Tarjan's algorithm with an {e explicit} DFS stack:
    call chains in real programs reach depths that would exhaust the
    runtime stack of a recursive traversal (and do, on runtimes without
    growable native stacks), so no function here recurses.

    Everything is deterministic: component numbering, member order and
    condensation adjacency depend only on the input graph, never on
    timing or hashing. *)

type t = {
  count : int;  (** number of components *)
  comp_of : int array;
      (** vertex [->] component index.  Numbering is reverse topological:
          every edge [u -> v] crossing components has
          [comp_of.(v) < comp_of.(u)], so components [0, 1, ...] list
          successors (callees) before their predecessors (callers). *)
  members : int array array;
      (** component index [->] member vertices, in DFS postorder
          (ascending finish time, the component's root last): inside a
          component, successors-before-predecessors wherever its internal
          structure is acyclic — the seed order dependency-propagating
          consumers want. *)
  succs : int array array;
      (** condensation: component [->] distinct successor components,
          sorted ascending.  Every entry is smaller than its source. *)
}

val csr : int -> ((int -> int -> unit) -> unit) -> int array * int array
(** [csr n iter] is the [(off, adj)] form of the graph on [0 .. n - 1]
    whose edges [iter] hands to its argument as [u v] pairs.  [iter] is
    called twice and must produce the same edges both times; each row
    keeps the order its edges were produced in. *)

val decomposer :
  off:int array ->
  adj:int array ->
  (int array -> ends:int array -> int)
(** [decomposer ~off ~adj] allocates the Tarjan scratch for the graph
    once and returns [decompose], which may be applied any number of
    times.  [decompose verts ~ends] decomposes the subgraph induced by
    the distinct vertices of [verts] — edges leaving the subset are
    ignored — and rewrites [verts] as its components, one after another
    in reverse topological order, each in DFS postorder.  For a
    component occupying [[a, e)] of [verts] it sets [ends.(a) <- e] and
    writes no other entry of [ends].  Returns the component count.  DFS
    roots are tried in [verts] order and out-edges in row order, so the
    result depends only on the graph and [verts].  O(length of [verts] +
    their out-edges). *)

val compute_csr : off:int array -> adj:int array -> t
(** The decomposition of a whole graph, with its condensation.  Self
    edges and duplicate edges are tolerated; both are dropped from the
    condensation.  O(V + E) plus the sort of the condensation
    adjacency. *)

val compute : succs:int array array -> t
(** [compute ~succs] is {!compute_csr} of the graph whose vertex [v] has
    successor list [succs.(v)]. *)

val largest : t -> int
(** Size of the largest component; 0 when the graph is empty. *)
