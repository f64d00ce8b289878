"""Generators for the extremal families and the named fixture graphs.

Vertex numbering is fixed so tests are bit-reproducible: cycle vertices
come first in cycle order and a universal vertex, when present, is always
the last index.  The families hand ``build_graph`` their edges lazily, so
an order above ``MAX_ORDER`` is refused before any edge is made.
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph, build_graph
from .planar import icosahedron_triangulation, k4_triangulation, octahedron_triangulation


def cycle_diagonals_universal(k: int) -> Graph:
    """Cycle of order 2k, the k long diagonals, and one universal vertex.

    Order 2k+1 and size 5k, so the density is exactly 5(n-1)/2; every
    vertex cut must contain the universal vertex 2k.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    n = 2 * k + 1
    edges = chain(((i, (i + 1) % (2 * k)) for i in range(2 * k)),
                  ((i, i + k) for i in range(k)),
                  ((i, 2 * k) for i in range(2 * k)))
    return build_graph(n, edges)


def k3_band_cycle(n: int, c: int) -> Graph:
    """K_{3,n-3} plus a cycle of length c inside the large partite set.

    Vertices 0,1,2 form the small side; the cycle runs through vertices
    3..3+c-1.  Requires n > 6 and 3 <= c < n-3, which keeps the graph
    3-connected with the small side as its unique minimal forest cut.
    """
    if n <= 6 or not 3 <= c < n - 3:
        raise ValueError(f"need n > 6 and 3 <= c < n-3, got n={n}, c={c}")
    edges = chain(((a, b) for a in range(3) for b in range(3, n)),
                  ((3 + i, 3 + (i + 1) % c) for i in range(c)))
    return build_graph(n, edges)


def conjecture2_family(k: int) -> Graph:
    """Cycle u_0..u_{3k+2}, chords u_{3i}u_{3i+2}, and a universal vertex.

    Order 3k+4 and size 7k+7; 3-connected with every vertex neighborhood
    containing a cycle, meeting the 7(n-1)/3 density exactly.
    """
    if k < 1:
        raise ValueError("needs k >= 1")
    ring = 3 * k + 3
    n = ring + 1
    edges = chain(((i, (i + 1) % ring) for i in range(ring)),
                  ((3 * i, 3 * i + 2) for i in range(k + 1)),
                  ((i, ring) for i in range(ring)))
    return build_graph(n, edges)


def _check_clique(g: Graph, tup: tuple[int, ...], label: str) -> None:
    for u in tup:  # every vertex in range before any adjacency test reads it
        if not 0 <= u < g.order:
            raise ValueError(f"{label}: vertex {u} outside graph")
    for i, u in enumerate(tup):
        for v in tup[i + 1:]:
            if not g.has_edge(u, v):
                raise ValueError(f"{label}: {u} and {v} are not adjacent")


def clique_glue(g1: Graph, g2: Graph, clique_a: tuple[int, ...], clique_b: tuple[int, ...]) -> Graph:
    """Identify clique_a in g1 with clique_b in g2 pointwise (K2, K3 or K4);
    edges merge without duplicates."""
    if len(clique_a) != len(clique_b):
        raise ValueError("clique tuples must have equal length")
    if not 2 <= len(clique_a) <= 4:
        raise ValueError("gluing is along K2, K3, or K4 only")
    if len(set(clique_a)) != len(clique_a) or len(set(clique_b)) != len(clique_b):
        raise ValueError("clique tuples must not repeat vertices")
    _check_clique(g1, clique_a, "clique_a")
    _check_clique(g2, clique_b, "clique_b")
    remap = dict(zip(clique_b, clique_a))
    nxt = g1.order
    for v in range(g2.order):
        if v not in remap:
            remap[v] = nxt
            nxt += 1
    edges = list(g1.edges())
    edges += [(remap[u], remap[v]) for u, v in g2.edges()]
    return build_graph(g1.order + g2.order - len(clique_a), edges)


# name -> (order, edges).  fig1_a..fig1_d are four of the five sparse 3-connected graphs on
# 6 and 7 vertices (m < 11n/5 - 18/5): both graphs on 6 vertices and the two planar graphs
# on 7.  The fifth, a non-planar graph on 7 vertices, is not pictured.
_EDGE_FIXTURES = {
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "prism": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
    "wheel5": (5, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, 4) for i in range(4)]),
    "fig1_a": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5)]),
    "fig1_b": (6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 3), (1, 5), (5, 2), (4, 5)]),
    "fig1_c": (7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 5), (5, 3), (2, 6), (6, 1), (0, 4), (4, 5), (4, 6)]),
    "fig1_d": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 6), (6, 4), (3, 6), (6, 5), (5, 2), (1, 5)]),
}

_TRIANGULATION_FIXTURES = {
    "k4": k4_triangulation,
    "octahedron": octahedron_triangulation,
    "icosahedron": icosahedron_triangulation,
}

FIXTURE_NAMES = tuple(sorted(_EDGE_FIXTURES | _TRIANGULATION_FIXTURES))


def fixture(name: str) -> Graph:
    """Return a named fixture graph (see FIXTURE_NAMES)."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    if name in _TRIANGULATION_FIXTURES:
        return _TRIANGULATION_FIXTURES[name]().graph
    return build_graph(*_EDGE_FIXTURES[name])
