"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks the census as an exact set of graphs.  At n = 7 it holds
three graphs: the two pictured fixtures fig1_c and fig1_d, and one
non-planar graph (see ``census7_expected`` in conftest.py; test_verify
re-derives the set from the networkx graph atlas).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from forestcut.constructions import (
    GlueSpec,
    clique_glue,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from forestcut.cuts import (
    all_minimal_forest_cuts,
    find_forest_cut,
    find_forest_cut_exhaustive,
    witness_is_valid,
)
from forestcut.graph import (
    delete_edge,
    induced_is_forest,
    is_vertex_cut,
    vertex_connectivity_at_least,
    vertex_set,
)
from forestcut.lp import (
    build_dual,
    build_primal,
    check_feasible,
    certificate_dual_point,
    solve_primal_exact,
)
from forestcut.planar import (
    face_containing_edge,
    prop1_forest_cut,
    reroot,
    triangle_triangulation,
)
from forestcut.verify import (
    canonical_graph6,
    enumerate_connected_graphs,
    figure1_census,
    run_check,
)
from conftest import census7_expected
from test_lp import enumerate_basic_feasible_minimum


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"\nacceptance criterion {number} [{label}]: {status} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def small_corpus():
    graphs = []
    for n in range(1, 8):
        graphs.extend(enumerate_connected_graphs(n))
    return graphs


def test_criterion_1_figure1_reproduction():
    with criterion(1, "census reproduction", 60):
        census6 = figure1_census(6)
        assert len(census6) == 2
        assert sorted(canonical_graph6(g) for g in census6) == sorted(
            canonical_graph6(fixture(name)) for name in ("fig1_a", "fig1_b")
        )
        # exactly fig1_c, fig1_d and the non-planar third graph: all three
        # 3-connected graphs on 7 vertices with 11 < 11.8 edges
        census7 = figure1_census(7)
        assert sorted(canonical_graph6(g) for g in census7) == sorted(
            canonical_graph6(g) for g in census7_expected()
        )
        for name in ("fig1_a", "fig1_b", "fig1_c", "fig1_d"):
            g = fixture(name)
            w = find_forest_cut(g)
            assert w is not None and witness_is_valid(g, w)
        for g in census7:
            assert find_forest_cut(g) is not None


def test_criterion_2_dual_certificate():
    with criterion(2, "exact dual certificate 8..1000", 10):
        eleven35 = Fraction(11, 35)
        fixed = {
            "n_4": Fraction(0),
            "n_5": Fraction(0),
            "n_6": Fraction(1, 35),
            "n_4^5": Fraction(0),
            "n_4^6": Fraction(0),
            "n_4^6'": Fraction(0),
            "n_4^6''": Fraction(2, 35),
        }
        zero = Fraction(0)
        for n in range(8, 1001):
            report = check_feasible(build_dual(n), certificate_dual_point(n).assignment())
            assert report.feasible, f"certificate infeasible at n={n}"
            degree_rows = {}
            for row in report.rows:
                rid = row.row_id
                if rid in fixed:
                    assert row.slack == fixed[rid], (n, rid)
                elif rid.startswith("n_4^"):
                    assert row.slack == zero, (n, rid)
                else:
                    degree_rows[rid] = row.slack
            # degree rows: tight at j=7, opening as 11(j-7)/35 above
            assert degree_rows["n_7"] == zero
            assert degree_rows[f"n_{n - 1}"] == eleven35 * (n - 8)


def test_criterion_3_primal_confirmation():
    with criterion(3, "exact primal optimum 8..40", 300):
        for n in range(8, 41):
            value = solve_primal_exact(n)
            assert value >= Fraction(11 * n, 5), (n, value)
        oracle = enumerate_basic_feasible_minimum(build_primal(8))
        assert solve_primal_exact(8) == oracle


def test_criterion_4_small_order_sweeps(small_corpus):
    with criterion(4, "claim sweeps over all connected graphs n<=7", 1800):
        for name in ("theorem2", "chenyu", "conjecture1", "conjecture2"):
            sequential = run_check(name, small_corpus, "builtin-n<=7", workers=1)
            assert sequential.scanned == 996
            assert sequential.counterexamples == (), (name, sequential.counterexamples)
            parallel = run_check(name, small_corpus, "builtin-n<=7", workers=8)
            assert parallel == sequential, name


def test_criterion_5_maximal_planar_no_forest_cut(stacked_corpus):
    with criterion(5, "triangulations have no forest cut", 300):
        assert find_forest_cut_exhaustive(fixture("octahedron")) is None
        assert find_forest_cut_exhaustive(fixture("icosahedron")) is None
        assert len(stacked_corpus) == 20
        for tri in stacked_corpus:
            assert 4 <= tri.graph.order <= 10
            assert find_forest_cut_exhaustive(tri.graph) is None
        glued = clique_glue(
            fixture("octahedron"), fixture("octahedron"), GlueSpec((0, 1, 2), (0, 1, 2))
        )
        assert glued.order == 9 and glued.size == 21 == 3 * glued.order - 6
        assert find_forest_cut_exhaustive(glued) is None


def test_criterion_6_constructive_forest_cut(stacked_corpus):
    with criterion(6, "constructive cut revalidates on every edge", 300):
        assert prop1_forest_cut(triangle_triangulation(), (0, 1)) == vertex_set([2])
        assert prop1_forest_cut(triangle_triangulation(), (1, 2)) == vertex_set([0])
        for tri in stacked_corpus:
            g = tri.graph
            for u, v in g.edges():
                rerooted = reroot(tri, face_containing_edge(tri.embedding, u, v))
                cut = prop1_forest_cut(rerooted, (u, v))
                trimmed = delete_edge(g, u, v)
                assert is_vertex_cut(trimmed, cut), (u, v)
                assert induced_is_forest(trimmed, cut), (u, v)


def test_criterion_7_construction_contracts():
    with criterion(7, "generator contracts", 120):
        cdu = cycle_diagonals_universal(3)
        assert cdu.order == 7 and cdu.size == 15
        assert vertex_connectivity_at_least(cdu, 4)
        cdu_cuts = all_minimal_forest_cuts(cdu)
        assert cdu_cuts and all(cut >> 6 & 1 for cut in cdu_cuts)

        band = k3_band_cycle(8, 4)
        assert all_minimal_forest_cuts(band) == [vertex_set([0, 1, 2])]

        for k in range(1, 11):
            g = conjecture2_family(k)
            assert g.order == 3 * k + 4
            assert g.size == 7 * k + 7
            assert vertex_connectivity_at_least(g, 3)
            assert all(
                not induced_is_forest(g, g.adj[v]) for v in range(g.order)
            )


def test_criterion_8_oracle_equivalence(small_corpus, random_corpus):
    with criterion(8, "fast finder agrees with the oracle", 600):
        assert len(random_corpus) == 200
        assert all(g.order <= 12 for g in random_corpus)
        for g in small_corpus:
            if g.order < 3:
                continue
            fast = find_forest_cut(g)
            slow = find_forest_cut_exhaustive(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert witness_is_valid(g, fast)
        for g in random_corpus:
            fast = find_forest_cut(g)
            slow = find_forest_cut_exhaustive(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert witness_is_valid(g, fast)
