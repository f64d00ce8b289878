"""hypothesis graphs up to 128 vertices, in both graph6 forms, through the
builders that skip Graph's validation (see ``conftest.assert_validated``).
Skipped where hypothesis is not installed.
"""

import pytest

from conftest import assert_validated
from forestcut.graph import (
    build_graph,
    delete_edge,
    induced_subgraph,
    parse_graph6,
    write_graph6,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def graphs_with_a_vertex_set(draw):
    """A graph of order 1..128 with up to 3n edges, and a non-empty vertex set."""
    n = draw(st.integers(1, 128))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = build_graph(n, draw(st.lists(pairs, max_size=3 * n)))
    return g, draw(st.integers(1, (1 << n) - 1))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs_with_a_vertex_set())
def test_trusted_builders_agree_with_the_validating_constructor(drawn):
    g, mask = drawn
    assert_validated(g)
    h = parse_graph6(write_graph6(g))
    assert_validated(h)
    assert h == g
    assert_validated(induced_subgraph(g, mask))
    for u, v in list(g.edges())[:3]:
        assert_validated(delete_edge(g, u, v))
