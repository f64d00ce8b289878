"""networkx as an oracle for ``graph.component_neighbourhoods``.

Each component of G[sub] and its neighbourhood must match
``nx.connected_components`` on the induced subgraph and ``nx.node_boundary``
in G, listed by ascending smallest member.  Skipped where networkx is not
installed.
"""

import random

import pytest

from forestcut.constructions import FIXTURE_NAMES, fixture
from forestcut.graph import component_neighbourhoods, iter_bits, vertex_set
from forestcut.verify import enumerate_graphs

nx = pytest.importorskip("networkx")


def oracle(g, sub):
    """The (component, neighbourhood) pairs networkx gives for G[sub]."""
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    comps = nx.connected_components(h.subgraph(iter_bits(sub)))
    pairs = [(vertex_set(c), vertex_set(nx.node_boundary(h, c))) for c in comps]
    return sorted(pairs, key=lambda pair: pair[0] & -pair[0])


def check(g, sub):
    assert component_neighbourhoods(g.adj, sub) == oracle(g, sub)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_graph_of_small_order(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for g in enumerate_graphs(n):
        for sub in (0, full, *(rng.randrange(1 << n) for _ in range(3))):
            check(g, sub)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures(name):
    g = fixture(name)
    rng = random.Random(name)
    full = g.vertex_mask
    for sub in (full, *(full & ~(1 << v) for v in range(g.order)),
                *(rng.randrange(1 << g.order) for _ in range(20))):
        check(g, sub)
