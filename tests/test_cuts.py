from itertools import combinations

import pytest

from forestcut.constructions import (
    GlueSpec,
    clique_glue,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from forestcut.cuts import (
    CutWitness,
    all_minimal_forest_cuts,
    enumerate_minimal_separators,
    find_forest_cut,
    find_forest_cut_exhaustive,
    find_independent_cut,
    find_independent_cut_avoiding,
    universal_vertex_reduction,
    witness_is_valid,
)
from forestcut.graph import (
    build_graph,
    components,
    induced_is_forest,
    is_complete,
    is_connected,
    is_independent_set,
    iter_bits,
    vertex_connectivity_at_least,
    vertex_set,
)
from forestcut.verify import enumerate_connected_graphs


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def c5():
    return build_graph(5, [(i, (i + 1) % 5) for i in range(5)])


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def brute_minimal_cuts(g):
    """All inclusion-minimal vertex cuts by scanning every subset."""
    full = g.vertex_mask
    cuts = []
    for size in range(1, g.order - 1):
        for comb in combinations(range(g.order), size):
            s = vertex_set(comb)
            if len(components(g, full & ~s)) < 2:
                continue
            minimal = True
            for v in comb:
                rest = full & ~(s & ~(1 << v))
                if len(components(g, rest)) >= 2:
                    minimal = False
                    break
            if minimal:
                cuts.append(s)
    return sorted(cuts)


def brute_has_forest_cut(g):
    full = g.vertex_mask
    for s in range(1, full):
        if len(components(g, full & ~s)) >= 2 and induced_is_forest(g, s):
            return True
    return False


def brute_has_independent_cut(g, avoid=None):
    full = g.vertex_mask
    for s in range(1, full):
        if avoid is not None and s >> avoid & 1:
            continue
        if len(components(g, full & ~s)) >= 2 and is_independent_set(g, s):
            return True
    return False


class TestExhaustiveFinder:
    def test_c4_first_witness_is_02(self):
        w = find_forest_cut_exhaustive(c4())
        assert w == CutWitness(cut=vertex_set([0, 2]), rep_a=1, rep_b=3, kind="forest")

    def test_octahedron_has_none(self):
        assert find_forest_cut_exhaustive(fixture("octahedron")) is None

    def test_k4_has_none(self):
        assert find_forest_cut_exhaustive(fixture("k4")) is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="cut search requires a connected graph"):
            find_forest_cut_exhaustive(build_graph(4, [(0, 1), (2, 3)]))

    def test_order_cap(self):
        g = build_graph(29, [(i, i + 1) for i in range(28)])
        with pytest.raises(ValueError, match="exhaustive search capped at 28 vertices"):
            find_forest_cut_exhaustive(g)


class TestMinimalSeparators:
    def test_c4(self):
        seps = set(enumerate_minimal_separators(c4()))
        assert seps == {vertex_set([0, 2]), vertex_set([1, 3])}

    def test_c5_has_five_pairs(self):
        seps = list(enumerate_minimal_separators(c5()))
        assert len(seps) == 5
        assert all(s.bit_count() == 2 for s in seps)

    def test_complete_graph_rejected(self):
        with pytest.raises(ValueError, match="complete graphs have no separator"):
            list(enumerate_minimal_separators(fixture("k4")))

    def test_deterministic_order(self):
        g = fixture("prism")
        assert list(enumerate_minimal_separators(g)) == list(enumerate_minimal_separators(g))

    def test_matches_brute_force(self, random_connected_graph):
        for seed in range(30):
            g = random_connected_graph(4 + seed % 5, seed)
            if g.size == g.order * (g.order - 1) // 2:
                continue
            assert sorted(enumerate_minimal_separators(g)) == brute_minimal_cuts(g)

    def test_every_vertex_sees_all_components(self, random_connected_graph):
        for seed in range(20):
            g = random_connected_graph(8, seed)
            if g.size == g.order * (g.order - 1) // 2:
                continue
            full = g.vertex_mask
            for s in enumerate_minimal_separators(g):
                for v in range(g.order):
                    if s >> v & 1:
                        rest = full & ~(s & ~(1 << v))
                        assert len(components(g, rest)) == 1


class TestFindForestCut:
    def test_band_cycle_small_side(self):
        g = k3_band_cycle(8, 4)
        w = find_forest_cut(g)
        assert w is not None and w.cut == vertex_set([0, 1, 2])
        assert witness_is_valid(g, w)

    def test_glued_octahedra_have_none(self):
        spec = GlueSpec((0, 1, 2), (0, 1, 2))
        g = clique_glue(fixture("octahedron"), fixture("octahedron"), spec)
        assert g.order == 9 and g.size == 21
        assert find_forest_cut(g) is None
        assert find_forest_cut_exhaustive(g) is None

    def test_wheel_uses_hub(self):
        g = fixture("wheel5")
        w = find_forest_cut(g)
        assert w is not None and w.cut >> 4 & 1
        assert witness_is_valid(g, w)

    def test_k4_none(self):
        assert find_forest_cut(fixture("k4")) is None

    def test_star_center(self):
        g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        w = find_forest_cut(g)
        assert w is not None and w.cut == 1 << 3

    def test_runs_beyond_the_exhaustive_cap(self):
        g = k3_band_cycle(30, 5)
        w = find_forest_cut(g)
        assert w is not None and w.cut == vertex_set([0, 1, 2])
        with pytest.raises(ValueError, match="exhaustive search capped at 28 vertices"):
            find_forest_cut_exhaustive(g)


class TestIndependentCut:
    def test_p3_middle(self):
        w = find_independent_cut(p3())
        assert w is not None and w.cut == 1 << 1

    def test_prism_has_none(self):
        g = fixture("prism")
        assert find_independent_cut(g) is None
        assert not brute_has_independent_cut(g)

    def test_c4_avoiding(self):
        w = find_independent_cut_avoiding(c4(), 0)
        assert w is not None and w.cut == vertex_set([1, 3])

    def test_avoiding_matches_brute_force(self, random_connected_graph):
        for seed in range(25):
            g = random_connected_graph(4 + seed % 5, seed)
            for u in range(g.order):
                got = find_independent_cut_avoiding(g, u)
                assert (got is not None) == brute_has_independent_cut(g, avoid=u)
                if got is not None:
                    assert not got.cut >> u & 1
                    assert witness_is_valid(g, got)


class TestAllMinimalForestCuts:
    @pytest.mark.parametrize("n,c", [(8, 3), (8, 4), (9, 3), (9, 4), (9, 5)])
    def test_band_cycle_uniqueness(self, n, c):
        cuts = all_minimal_forest_cuts(k3_band_cycle(n, c))
        assert cuts == [vertex_set([0, 1, 2])]

    def test_universal_vertex_in_every_cut(self):
        # k=2 degenerates to K5, which has no separator at all
        with pytest.raises(ValueError, match="complete graphs have no vertex cut"):
            all_minimal_forest_cuts(cycle_diagonals_universal(2))
        for k in (3, 4):
            g = cycle_diagonals_universal(k)
            y = 2 * k
            seps = list(enumerate_minimal_separators(g))
            assert seps and all(s >> y & 1 for s in seps)
            assert all(s >> y & 1 for s in all_minimal_forest_cuts(g))

    def test_c4(self):
        assert all_minimal_forest_cuts(c4()) == [vertex_set([0, 2]), vertex_set([1, 3])]

    def test_complete_rejected(self):
        with pytest.raises(ValueError, match="complete graphs have no vertex cut"):
            all_minimal_forest_cuts(fixture("k4"))


class TestUniversalVertexReduction:
    def test_wheel(self):
        u, rest = universal_vertex_reduction(fixture("wheel5"))
        assert u == 4
        assert rest == c4()

    def test_c5_has_none(self):
        assert universal_vertex_reduction(c5()) is None

    def test_k4_reduces_to_k3(self):
        u, rest = universal_vertex_reduction(fixture("k4"))
        assert u == 0
        assert rest.order == 3 and rest.size == 3
        assert find_forest_cut(fixture("k4")) is None

    def test_walk_of_g_lifts_walk_of_g_minus_u(self):
        # find_forest_cut walks G itself: its separators are {u} + S for the
        # separators S of G - u, met in the same order, so the first forest
        # cut is {u} plus the first independent cut of G - u.
        graphs = [g for n in range(3, 8) for g in enumerate_connected_graphs(n)]
        graphs += [cycle_diagonals_universal(k) for k in range(3, 9)]
        checked = 0
        for g in graphs:
            reduction = universal_vertex_reduction(g)
            if reduction is None or is_complete(g):
                continue
            u, rest = reduction
            ids = [v for v in range(g.order) if v != u]

            def lift(s):
                return 1 << u | vertex_set(ids[v] for v in iter_bits(s))

            w = find_forest_cut(g)
            if not is_connected(rest):
                assert list(enumerate_minimal_separators(g)) == [1 << u]
                assert w.cut == 1 << u
                continue
            walked = [lift(s) for s in enumerate_minimal_separators(rest)]
            assert list(enumerate_minimal_separators(g)) == walked
            inner = find_independent_cut(rest)
            assert (w is None) == (inner is None)
            if w is not None:
                assert w.cut == lift(inner.cut)
            checked += 1
        assert checked > 100


class TestOracleAgreement:
    def test_small_corpus(self):
        for n in range(3, 7):
            for g in enumerate_connected_graphs(n):
                fast = find_forest_cut(g)
                slow = find_forest_cut_exhaustive(g)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert witness_is_valid(g, fast)
                    assert witness_is_valid(g, slow)

    def test_random_corpus_sample(self, random_corpus):
        for g in random_corpus[:60]:
            fast = find_forest_cut(g)
            assert (fast is None) == (find_forest_cut_exhaustive(g) is None)
            if fast is not None:
                assert witness_is_valid(g, fast)

    def test_independent_matches_brute(self, random_corpus):
        for g in random_corpus[:40]:
            got = find_independent_cut(g)
            assert (got is not None) == brute_has_independent_cut(g)


class TestGreedyShrinking:
    def test_shrunk_cut_is_still_a_cut(self, random_connected_graph):
        from forestcut.graph import is_vertex_cut

        for seed in range(15):
            g = random_connected_graph(8, seed)
            full = g.vertex_mask
            for size in (3, 4):
                for comb in combinations(range(g.order), size):
                    s = vertex_set(comb)
                    rest = full & ~s
                    if not rest or len(components(g, rest)) < 2:
                        continue
                    shrunk = s
                    changed = True
                    while changed:
                        changed = False
                        for v in list(range(g.order)):
                            if not shrunk >> v & 1:
                                continue
                            cand = shrunk & ~(1 << v)
                            if cand and len(components(g, full & ~cand)) >= 2:
                                shrunk = cand
                                changed = True
                    assert is_vertex_cut(g, shrunk)
                    for v in range(g.order):
                        if shrunk >> v & 1:
                            cand = shrunk & ~(1 << v)
                            assert not cand or len(components(g, full & ~cand)) == 1
                    break
                break


class TestMonotoneClosure:
    def test_subcut_of_forest_cut_is_forest_cut(self, random_connected_graph):
        # any cut inside a forest-inducing set stays forest-inducing
        for seed in range(20):
            g = random_connected_graph(7, seed)
            w = find_forest_cut_exhaustive(g)
            if w is None:
                continue
            s = w.cut
            sub = s
            while sub:
                sub = (sub - 1) & s
                if sub and len(components(g, g.vertex_mask & ~sub)) >= 2:
                    assert induced_is_forest(g, sub)


class TestTheorem1Empirical:
    def test_avoiding_cut_exists_for_sparse_2_connected(self):
        checked = 0
        for n in range(3, 8):
            for g in enumerate_connected_graphs(n):
                if g.size >= 2 * g.order - 3:
                    continue
                if not vertex_connectivity_at_least(g, 2):
                    continue
                for u in range(g.order):
                    w = find_independent_cut_avoiding(g, u)
                    assert w is not None, (n, u)
                    assert witness_is_valid(g, w)
                checked += 1
        assert checked > 50
