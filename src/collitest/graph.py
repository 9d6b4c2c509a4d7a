"""Comparison graphs: which pairs of samples get compared.

A comparison graph is a simple undirected graph whose vertices stand for
samples and whose edges are the pairs compared for equality.  Two
numbers drive everything downstream: the edge count |E| (comparisons
made) and the directed two-path count c(G) = sum_v d_v (d_v - 1)
(dependencies between comparisons).  c(G) is always the DIRECTED count;
both orientations of a path u-v-w are counted.

Vertices are dense integers 0..|V|-1.  Graphs are immutable and their
statistics are computed at construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ComparisonGraph:
    """Simple undirected graph with cached comparison statistics.

    A graph is given by `edges` or, for a disjoint union of cliques, by
    `clique_blocks`: contiguous vertex ranges partitioning 0..|V|-1.  A
    block graph derives degrees, |E| and c(G) from the block sizes and
    builds `edges` only when it is first read.

    `owner`, when present, maps every vertex to the player or batch that
    holds its sample; edges may only join vertices with the same owner
    (a cross-owner comparison is impossible in partitioned models).
    """

    __slots__ = ("vertex_count", "_edges", "owner", "owner_order",
                 "clique_blocks", "block_sizes", "degrees", "edge_count",
                 "two_path_count")

    def __init__(self, vertex_count, edges=None, owner=None, clique_blocks=None):
        vertex_count = int(vertex_count)
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        if (edges is None) == (clique_blocks is None):
            raise ValueError("give a graph by its edges or by its clique blocks")
        self.vertex_count = vertex_count

        if clique_blocks is None:
            arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            if arr.size and (arr.min() < 0 or arr.max() >= vertex_count):
                raise ValueError("edge endpoint out of range")
            arr = np.sort(arr, axis=1)
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            if np.any(np.all(arr[1:] == arr[:-1], axis=1)):
                raise ValueError("duplicate edges are not allowed")
            arr = arr.astype(np.int32)
            arr.flags.writeable = False
            degrees = np.bincount(arr.ravel(), minlength=vertex_count)
            ends = (arr[:, 0], arr[:, 1])
            sizes = None
        else:
            blocks = tuple((int(a), int(b)) for a, b in clique_blocks)
            pos = 0
            for a, b in blocks:
                if a != pos or b < a:
                    raise ValueError("clique blocks must partition the vertex range")
                pos = b
            if pos != vertex_count:
                raise ValueError("clique blocks must cover every vertex")
            starts, stops = np.array(blocks, dtype=np.int64).reshape(-1, 2).T
            sizes = stops - starts
            sizes.flags.writeable = False
            degrees = np.repeat(sizes - 1, sizes)
            # a block joins each of its vertices to its first vertex
            ends = (np.repeat(starts, sizes), np.arange(vertex_count))
            arr = None
            clique_blocks = blocks
        self._edges = arr
        self.clique_blocks = clique_blocks
        self.block_sizes = sizes

        if owner is not None:
            owner = np.asarray(owner, dtype=np.int32)
            if owner.shape != (vertex_count,):
                raise ValueError("owner map must assign every vertex")
            owner.flags.writeable = False
            if np.any(owner[ends[0]] != owner[ends[1]]):
                raise ValueError("edges may not cross owners")
        self.owner = owner
        # the vertices grouped by owner, smallest id first and each
        # owner's in ascending order; None when that is vertex order
        self.owner_order = None
        if owner is not None and np.any(owner[1:] < owner[:-1]):
            self.owner_order = np.argsort(owner, kind="stable")
            self.owner_order.flags.writeable = False

        degrees.flags.writeable = False
        self.degrees = degrees
        self.edge_count = int(degrees.sum()) // 2
        self.two_path_count = int(np.sum(degrees * (degrees - 1)))

    @property
    def edges(self) -> np.ndarray:
        """Sorted, read-only (|E|, 2) int32 array of edges u < v."""
        if self._edges is None:
            # vertex v joins the later vertices v+1 .. stop-1 of its block
            starts, stops = np.array(self.clique_blocks, dtype=np.int64).reshape(-1, 2).T
            later = np.repeat(stops, stops - starts) - np.arange(self.vertex_count) - 1
            u = np.repeat(np.arange(self.vertex_count), later)
            rank = np.arange(u.size) - np.repeat(np.cumsum(later) - later, later)
            arr = np.column_stack((u, u + 1 + rank)).astype(np.int32)
            arr.flags.writeable = False
            self._edges = arr
        return self._edges

    def adjacency(self) -> list[np.ndarray]:
        """Sorted neighbor array per vertex."""
        e = self.edges.astype(np.int64)
        tail = np.concatenate((e[:, 0], e[:, 1]))
        head = np.concatenate((e[:, 1], e[:, 0]))
        head = head[np.lexsort((head, tail))]
        # the piece after the last vertex is always empty
        return np.split(head, np.cumsum(self.degrees))[:-1]

    def __repr__(self) -> str:
        return (f"ComparisonGraph(|V|={self.vertex_count}, |E|={self.edge_count}, "
                f"c={self.two_path_count})")


def make_clique(q: int) -> ComparisonGraph:
    """Complete graph on q >= 2 vertices."""
    if q < 2:
        raise ValueError("a clique needs q >= 2 to have an edge")
    return ComparisonGraph(q, clique_blocks=[(0, q)])


def make_clique_union(sizes) -> ComparisonGraph:
    """Disjoint union of cliques with the given sizes (entries >= 0).

    Vertices are laid out block by block and the owner map assigns each
    vertex its clique index; size-0 and size-1 entries contribute an
    empty (or edgeless) block but still reserve an owner id.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 0 for s in sizes):
        raise ValueError("sizes must be a non-empty list of integers >= 0")
    stops = np.cumsum(sizes)
    blocks = zip(stops - sizes, stops)
    owner = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    return ComparisonGraph(int(stops[-1]), owner=owner, clique_blocks=blocks)


def make_disjoint_cliques(q: int, ell: int) -> ComparisonGraph:
    """`ell` vertex-disjoint copies of the q-clique, owner = clique index."""
    if q < 2:
        raise ValueError("a clique needs q >= 2 to have an edge")
    if ell < 1:
        raise ValueError("need at least one clique")
    return make_clique_union([q] * ell)


def make_matching(pairs: int) -> ComparisonGraph:
    """`pairs` disjoint edges; the zero-dependency comparison graph."""
    if pairs < 1:
        raise ValueError("need at least one pair")
    return ComparisonGraph(2 * pairs,
                           clique_blocks=[(2 * i, 2 * i + 2) for i in range(pairs)])


def make_star(leaves: int) -> ComparisonGraph:
    """Hub vertex 0 joined to `leaves` leaves; maximizes two-paths per edge."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    hub = np.zeros(leaves, dtype=np.int64)
    edges = np.column_stack((hub, np.arange(1, leaves + 1, dtype=np.int64)))
    return ComparisonGraph(leaves + 1, edges)


def make_bipartite(a: int, b: int) -> ComparisonGraph:
    """Complete bipartite graph with side sizes a and b."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return ComparisonGraph(a + b, np.column_stack((left, right)))


def make_cycle(length: int) -> ComparisonGraph:
    """Simple cycle; every vertex has degree 2, so c(G) = 2|E|."""
    if length < 3:
        raise ValueError("a cycle needs length >= 3")
    i = np.arange(length, dtype=np.int64)
    edges = np.column_stack((i, (i + 1) % length))
    return ComparisonGraph(length, edges)


def make_path(length: int) -> ComparisonGraph:
    """Simple path on `length` vertices."""
    if length < 2:
        raise ValueError("a path needs length >= 2")
    i = np.arange(length - 1, dtype=np.int64)
    return ComparisonGraph(length, np.column_stack((i, i + 1)))


def graph_power(graph: ComparisonGraph, t: int) -> ComparisonGraph:
    """Join every pair at graph distance in [1, t]; owner map is dropped."""
    if t < 1:
        raise ValueError("power must be >= 1")
    if t == 1:
        return ComparisonGraph(graph.vertex_count, graph.edges)
    adjacency = graph.adjacency()
    pairs = []
    for source in range(graph.vertex_count):
        dist = np.full(graph.vertex_count, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        depth = 0
        while frontier and depth < t:
            depth += 1
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = depth
                        nxt.append(int(v))
            frontier = nxt
        reached = np.nonzero((dist > 0) & (np.arange(graph.vertex_count) > source))[0]
        if reached.size:
            pairs.append(np.column_stack((np.full(reached.size, source), reached)))
    edges = np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
    return ComparisonGraph(graph.vertex_count, edges)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    vacuous: bool = False


@dataclass(frozen=True)
class GraphInequalityReport:
    """Structural inequalities every simple graph must satisfy.

    A failure here signals an implementation bug, not a property of the
    graph.  Items: (1) |E| <= |V|^2/2, (2) |V| >= 4|E|^2/(2|E|+c(G)),
    (3) c(G) >= 2|E| whenever |V| <= |E|, and the consequence
    |V| c(G) >= 2|E|^2 under the same premise.
    """

    edge_bound: InequalityCheck
    vertex_bound: InequalityCheck
    two_path_bound: InequalityCheck
    product_bound: InequalityCheck

    @property
    def all_passed(self) -> bool:
        return (self.edge_bound.passed and self.vertex_bound.passed
                and self.two_path_bound.passed and self.product_bound.passed)


def check_graph_inequalities(graph: ComparisonGraph) -> GraphInequalityReport:
    nv = graph.vertex_count
    ne = graph.edge_count
    c = graph.two_path_count
    edge_bound = InequalityCheck("edges_vs_vertices", ne, nv * nv / 2.0,
                                 ne <= nv * nv / 2.0)
    rhs = 4.0 * ne * ne / (2.0 * ne + c) if ne else 0.0
    vertex_bound = InequalityCheck("vertices_vs_edges", nv, rhs, nv >= rhs)
    dense = nv <= ne
    two_path_bound = InequalityCheck("two_paths_vs_edges", c, 2.0 * ne,
                                     (not dense) or c >= 2 * ne,
                                     vacuous=not dense)
    product_bound = InequalityCheck("vertex_two_path_product", nv * c,
                                    2.0 * ne * ne,
                                    (not dense) or nv * c >= 2 * ne * ne,
                                    vacuous=not dense)
    return GraphInequalityReport(edge_bound, vertex_bound, two_path_bound,
                                 product_bound)


def random_simple_graph(vertex_count: int, edge_prob: float,
                        gen: np.random.Generator) -> ComparisonGraph:
    """Erdos-Renyi sample; corpus generator for property tests."""
    if vertex_count < 1:
        raise ValueError("vertex_count must be >= 1")
    u, v = np.triu_indices(vertex_count, k=1)
    keep = gen.random(u.size) < edge_prob
    edges = np.column_stack((u[keep], v[keep])).astype(np.int64)
    return ComparisonGraph(vertex_count, edges)


def random_connected_graph(vertex_count: int, gen: np.random.Generator,
                           extra_edge_prob: float = 0.1) -> ComparisonGraph:
    """Random spanning tree plus independent extra edges."""
    if vertex_count < 1:
        raise ValueError("vertex_count must be >= 1")
    edge_set = set()
    for v in range(1, vertex_count):
        parent = int(gen.integers(0, v))
        edge_set.add((parent, v))
    if vertex_count >= 2:
        u, v = np.triu_indices(vertex_count, k=1)
        keep = gen.random(u.size) < extra_edge_prob
        for a, b in zip(u[keep], v[keep]):
            edge_set.add((int(a), int(b)))
    edges = np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    return ComparisonGraph(vertex_count, edges)
