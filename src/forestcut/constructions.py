"""Generators for the extremal families and the named fixture graphs.

Vertex numbering is fixed so tests are bit-reproducible: cycle vertices
come first in cycle order and a universal vertex, when present, is always
the last index.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    edges += [(i, i + k) for i in range(k)]
    edges += [(i, 2 * k) for i in range(2 * k)]
    return build_graph(n, edges)


def k3_band_cycle(n: int, c: int) -> Graph:
    """K_{3,n-3} plus a cycle of length c inside the large partite set.

    Vertices 0,1,2 form the small side; the cycle runs through vertices
    3..3+c-1.  Requires n > 6 and 3 <= c < n-3, which keeps the graph
    3-connected with the small side as its unique minimal forest cut.
    """
    if n <= 6 or not 3 <= c < n - 3:
        raise ValueError(f"need n > 6 and 3 <= c < n-3, got n={n}, c={c}")
    edges = [(a, b) for a in range(3) for b in range(3, n)]
    edges += [(3 + i, 3 + (i + 1) % c) for i in range(c)]
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
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    edges += [(3 * i, 3 * i + 2) for i in range(k + 1)]
    edges += [(i, ring) for i in range(ring)]
    return build_graph(n, edges)


@dataclass(frozen=True)
class GlueSpec:
    """Matched clique tuples (length 2, 3, or 4) in the two operands."""

    clique_a: tuple[int, ...]
    clique_b: tuple[int, ...]

    def __post_init__(self):
        if len(self.clique_a) != len(self.clique_b):
            raise ValueError("clique tuples must have equal length")
        if not 2 <= len(self.clique_a) <= 4:
            raise ValueError("gluing is along K2, K3, or K4 only")
        if len(set(self.clique_a)) != len(self.clique_a) or len(set(self.clique_b)) != len(self.clique_b):
            raise ValueError("clique tuples must not repeat vertices")


def _check_clique(g: Graph, tup: tuple[int, ...], label: str) -> None:
    for u in tup:  # every vertex in range before any adjacency test reads it
        if not 0 <= u < g.order:
            raise ValueError(f"{label}: vertex {u} outside graph")
    for i, u in enumerate(tup):
        for v in tup[i + 1:]:
            if not g.has_edge(u, v):
                raise ValueError(f"{label}: {u} and {v} are not adjacent")


def clique_glue(g1: Graph, g2: Graph, spec: GlueSpec) -> Graph:
    """Identify the two clique tuples pointwise; edges merge without duplicates."""
    _check_clique(g1, spec.clique_a, "clique_a")
    _check_clique(g2, spec.clique_b, "clique_b")
    t = len(spec.clique_a)
    remap = {}
    for a, b in zip(spec.clique_a, spec.clique_b):
        remap[b] = a
    nxt = g1.order
    for v in range(g2.order):
        if v not in remap:
            remap[v] = nxt
            nxt += 1
    edges = list(g1.edges())
    edges += [(remap[u], remap[v]) for u, v in g2.edges()]
    return build_graph(g1.order + g2.order - t, edges)


def _k33() -> Graph:
    return build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def _prism() -> Graph:
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    return build_graph(6, edges)


def _wheel5() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, 4) for i in range(4)]
    return build_graph(5, edges)


# Four of the five sparse 3-connected graphs on 6 and 7 vertices (m < 11n/5 - 18/5),
# as edge lists: both graphs on 6 vertices and the two planar graphs on 7.
# The fifth, a non-planar graph on 7 vertices, is not pictured.
_FIG1_A = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5)]
_FIG1_B = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 3), (1, 5), (5, 2), (4, 5)]
_FIG1_C = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 5), (5, 3), (2, 6), (6, 1), (0, 4), (4, 5), (4, 6)]
_FIG1_D = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 6), (6, 4), (3, 6), (6, 5), (5, 2), (1, 5)]

_FIXTURES = {
    "k4": lambda: k4_triangulation().graph,
    "k33": _k33,
    "prism": _prism,
    "octahedron": lambda: octahedron_triangulation().graph,
    "icosahedron": lambda: icosahedron_triangulation().graph,
    "wheel5": _wheel5,
    "fig1_a": lambda: build_graph(6, _FIG1_A),
    "fig1_b": lambda: build_graph(6, _FIG1_B),
    "fig1_c": lambda: build_graph(7, _FIG1_C),
    "fig1_d": lambda: build_graph(7, _FIG1_D),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str) -> Graph:
    """Return a named fixture graph (see FIXTURE_NAMES)."""
    try:
        maker = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}") from None
    return maker()
