(** Strongly-connected components and the condensation DAG.

    The interprocedural phases schedule their fixpoints over the call
    graph's SCC condensation: each component is a maximal set of mutually
    recursive routines, and the condensation — one vertex per component,
    an edge when any member calls into another component — is acyclic, so
    components can be processed in topological order with iteration
    confined to the inside of each component.

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
  preds : int array array;
      (** inverse of [succs], sorted ascending *)
}

val compute : succs:int array array -> t
(** [compute ~succs] decomposes the directed graph whose vertex [v] has
    successor list [succs.(v)] ([0 .. n - 1] where [n] is the array
    length).  Self edges and duplicate edges are tolerated; both are
    dropped from the condensation.  O(V + E) plus the sort of the
    condensation adjacency. *)

val largest : t -> int
(** Size of the largest component; 0 when the graph is empty. *)
