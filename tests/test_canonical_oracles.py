"""networkx's isomorphism test as an oracle for the canonical forms.

hypothesis draws random graphs, a second graph of the same order and size,
random trees, and relabelings; two canonical forms must be equal exactly
when networkx finds the graphs isomorphic.  Skipped where either package is
not installed.
"""

import pytest

from conftest import symmetric_graphs
from forestcut.graph import build_graph
from forestcut.verify import canonical_form, canonical_graph6

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
nx = pytest.importorskip("networkx")


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def _relabel(g, perm):
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graph_pairs(draw):
    """Two graphs of one order and size, and a permutation of their vertices.

    Half the draws have at most n edges: forests and sparse graphs are where
    symmetry survives refinement.
    """
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(0, min(n, len(pairs))) | st.integers(0, len(pairs)))
    g = build_graph(n, draw(st.permutations(pairs))[:m])
    h = build_graph(n, draw(st.permutations(pairs))[:m])
    return g, h, draw(st.permutations(range(n)))


@st.composite
def circulant_unions(draw):
    """A disjoint union of two circulant graphs, regular when their degrees agree.

    Refinement cannot split a regular graph, so the search must branch and
    compare leaves from both parts.
    """
    edges = []
    order = 0
    for k in draw(st.tuples(st.integers(1, 7), st.integers(1, 7))):
        jumps = draw(st.sets(st.integers(1, k // 2))) if k > 1 else set()
        edges += [(order + i, order + (i + j) % k) for i in range(k) for j in jumps]
        order += k
    return build_graph(order, edges)


@st.composite
def tree_pairs(draw):
    """Two random trees of one order, each vertex hung from an earlier one,
    and a permutation of their vertices.

    Trees keep symmetry that twins do not explain: swapping two isomorphic
    branches moves more than two vertices.
    """
    n = draw(st.integers(1, 16))
    trees = [build_graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]) for _ in "gh"]
    return trees[0], trees[1], draw(st.permutations(range(n)))


def _check_against_networkx(g, h, perm):
    form = canonical_graph6(g)
    assert canonical_graph6(_relabel(g, perm)) == form
    assert (canonical_graph6(h) == form) == nx.is_isomorphic(_to_networkx(g), _to_networkx(h))
    assert nx.is_isomorphic(_to_networkx(canonical_form(g)), _to_networkx(g))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph_pairs())
def test_forms_equal_exactly_when_networkx_finds_isomorphism(case):
    _check_against_networkx(*case)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(circulant_unions(), circulant_unions(), st.data())
def test_regular_unions_match_networkx(g, h, data):
    _check_against_networkx(g, h, data.draw(st.permutations(range(g.order))))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(tree_pairs())
def test_trees_match_networkx(case):
    _check_against_networkx(*case)


@pytest.mark.parametrize("name", sorted(symmetric_graphs()))
def test_symmetric_graphs_under_relabeling(name):
    g = symmetric_graphs()[name]
    form = canonical_form(g)
    assert nx.is_isomorphic(_to_networkx(form), _to_networkx(g))

    @hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.permutations(range(g.order)))
    def relabeled_form_is_unchanged(perm):
        assert canonical_form(_relabel(g, perm)) == form

    relabeled_form_is_unchanged()
