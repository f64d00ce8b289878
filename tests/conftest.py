import io
import random
from contextlib import redirect_stdout

import pytest

from forestcut import cli
from forestcut.constructions import conjecture2_family, fixture
from forestcut.graph import Graph, build_graph, component_neighbourhoods, is_connected, parse_graph6

# The 3-connected graphs on 7 vertices with m < 11n/5 - 18/5.  All three have
# m = 11 and degree sequence 3^6 4^1: the planar fixtures fig1_c and fig1_d,
# and one non-planar graph.  test_verify re-derives this list from the
# networkx graph atlas.
CENSUS7_NONPLANAR_EDGES = (
    (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4),
    (2, 6), (3, 6), (4, 5), (4, 6), (5, 6),
)


# The 3-connected order-8 graphs whose every neighborhood contains a cycle and
# with m < 7(n-1)/3, so conjecture2 as encoded flags them; each has a forest
# cut.  Compare them through canonical_graph6, not as literal strings.
ORDER8_CONJECTURE2_FLAGS = ("GJ]KlK", "GJem^_", "GLYR[{", "GxSW~K")


def census7_expected() -> list[Graph]:
    """The expected 7-vertex census: fig1_c, fig1_d, then the non-planar graph."""
    return [fixture("fig1_c"), fixture("fig1_d"), build_graph(7, CENSUS7_NONPLANAR_EDGES)]


def census(n: int) -> list[Graph]:
    """The sparse 3-connected graphs of order n (m < 11n/5 - 18/5), as
    ``forestcut enumerate`` prints them with the census filters."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(["enumerate", "--n", str(n), "--min-connectivity", "3",
                        "--max-edges-lt", "11/5n-18/5"])
    assert code == 0
    return [parse_graph6(line) for line in out.getvalue().splitlines()]


def symmetric_graphs() -> dict[str, Graph]:
    """Graphs with large automorphism groups, so refinement alone barely splits them."""
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return {
        "petersen": build_graph(10, petersen),
        "icosahedron": fixture("icosahedron"),
        "c12": build_graph(12, [(i, (i + 1) % 12) for i in range(12)]),
        "gk8": conjecture2_family(8),
        "k12": build_graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]),
        # 8 legs of length 2 around vertex 0: no twins, and 8! leaves unpruned
        "spider8": build_graph(17, [e for i in range(1, 9) for e in ((0, i), (i, i + 8))]),
    }


def components(g: Graph, within: int) -> list[int]:
    """The components of G[within] as bit sets, by ascending smallest member."""
    return [comp for comp, _ in component_neighbourhoods(g.adj, within)]


def assert_validated(g: Graph) -> None:
    """``g`` is the graph the validating constructor builds from its rows.

    parse_graph6, build_graph, delete_edge, induced_subgraph, the enumeration
    and canonical_form build their rows themselves and skip Graph's checks;
    this runs them after the fact.
    """
    assert type(g.adj) is tuple
    assert Graph(g.order, g.adj) == g


def _random_connected_graph(n: int, seed: int) -> Graph:
    """Deterministic connected graph: random spanning tree plus extra edges."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randrange(0, n * (n - 1) // 2)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    assert is_connected(g)
    return g


@pytest.fixture(scope="session")
def random_connected_graph():
    return _random_connected_graph


@pytest.fixture(scope="session")
def random_corpus():
    """The 200 seeded connected graphs on up to 12 vertices used by the oracles."""
    return [_random_connected_graph(4 + (i % 9), 1000 + i) for i in range(200)]


@pytest.fixture(scope="session")
def stacked_corpus():
    """20 seeded stacked triangulations with orders cycling through 4..10."""
    from forestcut.planar import random_stacked_triangulation

    return [random_stacked_triangulation(4 + (i % 7), 40 + i) for i in range(20)]
