"""Transitive closure, strongly connected components, and chain lengths.

The paper deliberately does *not* assume the role hierarchy is a partial
order (footnote 3, following Li et al.'s critique of the ANSI standard),
so policies may contain cycles.  Analyses that need acyclicity — most
importantly the longest-chain bound of Remark 2 — therefore operate on
the condensation DAG produced by Tarjan's SCC algorithm.

The dirty region of a journal window — reachability on the
condensation, evaluated without materializing it — lives with the
journal it reads (:func:`repro.graph.digraph.dirty_region`).
"""

from __future__ import annotations

from typing import Iterable

from .digraph import Digraph, Vertex


def transitive_closure(graph: Digraph) -> Digraph:
    """A new graph with an edge ``u -> v`` whenever ``v`` is reachable
    from ``u`` by a non-empty path in ``graph``.

    Reflexive edges are only present when the original graph contains a
    cycle through the vertex (matching the usual closure of a relation,
    not its reflexive closure).
    """
    closure = Digraph()
    for vertex in graph.vertices():
        closure.add_vertex(vertex)
    for vertex in graph.vertices():
        # A BFS from each successor keeps u -> u out unless cyclic.
        seen: set[Vertex] = set()
        stack = list(graph.successors(vertex))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(graph.successors(current))
        for reachable in seen:
            closure.add_edge(vertex, reachable)
    return closure


def strongly_connected_components(graph: Digraph) -> list[frozenset[Vertex]]:
    """Tarjan's algorithm, iterative to survive deep hierarchies.

    Components are returned in reverse topological order of the
    condensation (a component appears before any component it can
    reach), which is Tarjan's natural output order.
    """
    index_counter = 0
    index: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[frozenset[Vertex]] = []

    for root in list(graph.vertices()):
        if root in index:
            continue
        # Iterative Tarjan: work items are (vertex, iterator over succs).
        work: list[tuple[Vertex, list[Vertex]]] = [
            (root, list(graph.successors(root)))
        ]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            vertex, successors = work[-1]
            advanced = False
            while successors:
                succ = successors.pop()
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, list(graph.successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
            if lowlink[vertex] == index[vertex]:
                component: set[Vertex] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == vertex:
                        break
                components.append(frozenset(component))
    return components


def condensation(
    graph: Digraph,
) -> tuple[Digraph, dict[Vertex, frozenset[Vertex]]]:
    """Collapse each SCC to a single vertex.

    Returns the condensation DAG (vertices are the frozensets returned
    by :func:`strongly_connected_components`) and a map from original
    vertex to its component.
    """
    components = strongly_connected_components(graph)
    component_of: dict[Vertex, frozenset[Vertex]] = {}
    for component in components:
        for vertex in component:
            component_of[vertex] = component
    dag = Digraph()
    for component in components:
        dag.add_vertex(component)
    for source, target in graph.edges():
        if component_of[source] != component_of[target]:
            dag.add_edge(component_of[source], component_of[target])
    return dag, component_of


def topological_order(dag: Digraph) -> list[Vertex]:
    """Kahn's algorithm; raises ValueError if the graph has a cycle."""
    in_degree = {vertex: dag.in_degree(vertex) for vertex in dag.vertices()}
    ready = [vertex for vertex, degree in in_degree.items() if degree == 0]
    order: list[Vertex] = []
    while ready:
        vertex = ready.pop()
        order.append(vertex)
        for successor in dag.successors(vertex):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if len(order) != len(in_degree):
        raise ValueError("graph has a cycle; no topological order exists")
    return order


def longest_chain_length(
    graph: Digraph, restrict_to: Iterable[Vertex] | None = None
) -> int:
    """Length (number of edges) of the longest simple chain.

    Cycles are collapsed first, so the result is the longest path in the
    condensation DAG, counting a whole SCC as one link.  This is the
    bound ``n`` of the paper's Remark 2 ("the length of the longest
    chain in RH") when called with the role-hierarchy subgraph.

    ``restrict_to`` limits the computation to an induced subgraph.
    """
    if restrict_to is not None:
        allowed = set(restrict_to)
        sub = Digraph()
        for vertex in graph.vertices():
            if vertex in allowed:
                sub.add_vertex(vertex)
        for source, target in graph.edges():
            if source in allowed and target in allowed:
                sub.add_edge(source, target)
        graph = sub
    dag, _ = condensation(graph)
    order = topological_order(dag)
    longest: dict[Vertex, int] = {vertex: 0 for vertex in order}
    best = 0
    for vertex in order:
        for successor in dag.successors(vertex):
            candidate = longest[vertex] + 1
            if candidate > longest[successor]:
                longest[successor] = candidate
                if candidate > best:
                    best = candidate
    return best
