import hashlib
import sys
from collections import Counter
from itertools import chain, combinations

import pytest

from conftest import components
from forestcut import cuts
from forestcut.constructions import (
    FIXTURE_NAMES,
    GlueSpec,
    clique_glue,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from forestcut.cuts import (
    FOREST,
    CutWitness,
    _make_witness,
    _minimal_separators,
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
    component_neighbourhoods,
    delete_edge,
    induced_is_forest,
    is_connected,
    is_independent_set,
    iter_bits,
    vertex_connectivity_at_least,
    vertex_set,
    write_graph6,
)
from forestcut.planar import random_stacked_triangulation
from forestcut.verify import enumerate_connected_graphs, enumerate_graphs

# sha256 over every connected, non-complete graph of order <= 7 and the nine
# non-complete fixtures (see stream_digest).  A walk that finds the same sets
# in another order, or a finder that returns another witness, changes them.
SEPARATOR_STREAM_SHA256 = "d09bf3fdb6939908d9aeafaf76fc1f22a15fb84460b7193c8b5a8557643a25e1"
WITNESS_SHA256 = "3e3c0c9223be28a2e5822a1fb2b263d9179fd34f20718f93ca982d8dd3380eff"


def primitive_calls(run):
    """How often ``run()`` enters is_connected, by name."""
    watched = {is_connected.__code__: is_connected.__name__}
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class CountingRows(tuple):
    """Adjacency rows that count how often they are read by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def rows_read(run, g):
    """How many adjacency rows of ``g`` ``run()`` reads by index."""
    plain = g.adj
    rows = CountingRows(plain)
    object.__setattr__(g, "adj", rows)
    try:
        run()
    finally:
        object.__setattr__(g, "adj", plain)
    return rows.reads


def open_neighbourhood(g, mask):
    """N(mask): the vertices outside ``mask`` adjacent to it."""
    nbr = 0
    for v in iter_bits(mask):
        nbr |= g.adj[v]
    return nbr & ~mask


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def c5():
    return build_graph(5, [(i, (i + 1) % 5) for i in range(5)])


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def grid(rows, cols):
    return build_graph(rows * cols, [(r * cols + c, r * cols + c + 1)
                                     for r in range(rows) for c in range(cols - 1)]
                       + [(r * cols + c, (r + 1) * cols + c)
                          for r in range(rows - 1) for c in range(cols)])


def pinned_graphs():
    """Every connected, non-complete graph of order <= 7, then the non-complete fixtures."""
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    graphs += [fixture(name) for name in FIXTURE_NAMES]
    return [g for g in graphs if g.size < g.order * (g.order - 1) // 2]


def stream_digest(read):
    """sha256 of ``graph6 repr(read(g))`` lines over the pinned graphs."""
    digest = hashlib.sha256()
    for g in pinned_graphs():
        digest.update(f"{write_graph6(g)} {read(g)}\n".encode())
    return digest.hexdigest()


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

    def test_complete_graph_has_none(self):
        # the walk decides K_n: every G - N[v] is empty
        assert list(enumerate_minimal_separators(fixture("k4"))) == []
        assert list(enumerate_minimal_separators(cycle_diagonals_universal(2))) == []

    def test_deterministic_order(self):
        g = fixture("prism")
        assert list(enumerate_minimal_separators(g)) == list(enumerate_minimal_separators(g))

    def test_matches_brute_force(self, random_connected_graph):
        for seed in range(30):
            g = random_connected_graph(4 + seed % 5, seed)
            if g.size == g.order * (g.order - 1) // 2:
                continue
            assert sorted(enumerate_minimal_separators(g)) == brute_minimal_cuts(g)

    def test_stream_order_pinned(self):
        assert stream_digest(lambda g: list(enumerate_minimal_separators(g))) == (
            SEPARATOR_STREAM_SHA256
        )

    def test_walk_yields_the_components_of_g_minus_s(self):
        # the finders build their witnesses from the search the walk yields
        for g in pinned_graphs():
            for s, comps in _minimal_separators(g):
                want = components(g, g.vertex_mask & ~s)
                assert len(want) >= 2
                assert all(open_neighbourhood(g, c) == s for c in want)
                assert _make_witness(g, s, comps, FOREST) == witness_of(s, want)

    def test_disconnected_graphs_yield_the_empty_set_alone(self):
        # the claims walk disconnected graphs: every excluded set lies in one
        # component, so each search meets a component with no neighbours
        walked = 0
        for n in range(2, 8):
            for g in enumerate_graphs(n):
                if not is_connected(g):
                    walk = list(_minimal_separators(g))
                    assert [s for s, _ in walk] == [0]
                    want = witness_of(0, components(g, g.vertex_mask))
                    assert _make_witness(g, 0, walk[0][1], FOREST) == want
                    walked += 1
        assert walked == 256

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


def two_search_walk(g):
    """Reference for ``_minimal_separators``: its earlier walk, which searched
    G - X for every excluded set X it generated, repeats included, and
    G - S - C for every new set S, found from the component C, to test S
    for minimality."""
    adj = g.adj
    full = g.vertex_mask
    seen = set()
    found = []
    closed = (adj[v] | 1 << v for v in range(g.order))
    expanded = (s | adj[x] for s in found for x in iter_bits(s))
    for excluded in chain(closed, expanded):
        for comp, s in component_neighbourhoods(adj, full & ~excluded):
            if s in seen:
                continue
            seen.add(s)
            found.append(s)
            rest = component_neighbourhoods(adj, full & ~s & ~comp)
            if rest and all(nbr == s for _, nbr in rest):
                yield s, sorted([comp, *(c for c, _ in rest)], key=lambda c: c & -c)


def witness_of(s, comps):
    """The witness named by the sorted components of G - s: the lowest
    vertices of the first two."""
    low_a, low_b = (c & -c for c in comps[:2])
    return CutWitness(s, low_a.bit_length() - 1, low_b.bit_length() - 1, FOREST)


def assert_walk_matches_two_search_walk(g):
    walk = list(_minimal_separators(g))
    reference = list(two_search_walk(g))
    assert [s for s, _ in walk] == [s for s, _ in reference]
    assert [_make_witness(g, s, comps, FOREST) for s, comps in walk] == [
        witness_of(s, comps) for s, comps in reference
    ]


class TestWalkMatchesTwoSearchWalk:
    def test_pinned_graphs(self):
        for g in pinned_graphs():
            assert_walk_matches_two_search_walk(g)

    def test_stacked_triangulations(self):
        # a triangulation has no forest cut; minus an outer edge it has one
        for n in range(40, 101, 20):
            for seed in range(3):
                tri = random_stacked_triangulation(n, seed)
                x, y = tri.outer_face[:2]
                assert_walk_matches_two_search_walk(tri.graph)
                assert_walk_matches_two_search_walk(delete_edge(tri.graph, x, y))

    def test_families(self):
        graphs = [conjecture2_family(k) for k in range(5, 16)]
        graphs += [k3_band_cycle(n, c) for n, c in ((8, 4), (12, 3), (30, 5), (40, 36))]
        graphs += [cycle_diagonals_universal(k) for k in range(3, 9)]
        for g in graphs:
            assert_walk_matches_two_search_walk(g)

    def test_hypothesis_graphs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def connected_graphs(draw):
            """A spanning tree on 3..20 vertices, each vertex hung from an
            earlier one, plus up to 2n more edges."""
            n = draw(st.integers(3, 20))
            tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
            extra = draw(st.lists(pairs.map(lambda e: (e[0], e[1] + (e[1] >= e[0]))),
                                  max_size=2 * n))
            return build_graph(n, tree + extra)

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(connected_graphs())
        def check(g):
            assert_walk_matches_two_search_walk(g)

        check()


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

    @pytest.mark.parametrize("finder", [
        find_forest_cut, find_independent_cut, lambda g: find_independent_cut_avoiding(g, 0),
        pytest.param(lambda g: list(enumerate_minimal_separators(g)),
                     id="enumerate_minimal_separators"),
        all_minimal_forest_cuts,
    ])
    def test_precondition_checked_once(self, finder):
        # connected and not complete: one connectivity test
        calls = primitive_calls(lambda: finder(fixture("prism")))
        assert calls == {"is_connected": 1}

    @pytest.mark.parametrize("query", [
        find_forest_cut_exhaustive, find_forest_cut, find_independent_cut,
        pytest.param(lambda g: find_independent_cut_avoiding(g, 0),
                     id="find_independent_cut_avoiding"),
        pytest.param(lambda g: list(enumerate_minimal_separators(g)),
                     id="enumerate_minimal_separators"),
        all_minimal_forest_cuts,
    ])
    def test_every_query_asks_order_three(self, query):
        for g in (build_graph(1, []), build_graph(2, [(0, 1)])):
            with pytest.raises(ValueError, match=f"^graph of order {g.order} has no vertex cut to look for$"):
                query(g)

    @pytest.mark.parametrize("g, cut, most", [
        (build_graph(20, [(i, (i + 1) % 20) for i in range(20)]), vertex_set([1, 19]), 40),
        (grid(6, 6), vertex_set([1, 6]), 72),
        (k3_band_cycle(30, 5), vertex_set([0, 1, 2]), 121),
    ], ids=["c20", "grid6x6", "band30_5"])
    def test_first_hit_reads_only_the_seeds_before_it(self, g, cut, most):
        # the budget counts every adjacency row read: the precondition's,
        # the walk's and induced_is_forest's.  The walk searches G - X once
        # for each distinct excluded set X, and reads both minimality and
        # the witness's components from that search.  A walk that also
        # searches G - S - C for each new S reads 41, 73 and 172 rows; one
        # that searches G - S whole, 58, 106 and 176; one that also takes
        # N(C) from a second pass over C, 93, 173 and 219.
        found = []
        assert rows_read(lambda: found.append(find_forest_cut(g)), g) <= most
        assert found[0].cut == cut

    def test_full_walk_reads_each_component_once(self):
        # G_11 has 37 vertices and 264 minimal separators, 252 of them
        # forests.  A walk that also searches G - S - C for each new S reads
        # 22,286 rows; one that searches G - S whole, 28,946; one that also
        # makes a second pass over each component for its neighbourhood,
        # 55,478.
        g = conjecture2_family(11)
        found = []
        assert rows_read(lambda: found.append(all_minimal_forest_cuts(g)), g) <= 18830
        assert len(found[0]) == 252

    def test_no_cut_walk_searches_each_excluded_set_once(self, monkeypatch):
        # every expansion S u N(x) of a separating triangle S of a stacked
        # triangulation is the closed neighbourhood N[x], so the walk
        # generates 148 excluded sets and only 40 distinct ones.  Searching
        # each one it generates, and G - S - C for each new S, makes 184
        # searches and reads 5,884 rows.
        g = random_stacked_triangulation(40, 0).graph
        searched = []

        def component_search(adj, sub):
            searched.append(sub)
            return component_neighbourhoods(adj, sub)

        monkeypatch.setattr(cuts, "component_neighbourhoods", component_search)
        found = []
        assert rows_read(lambda: found.append(find_forest_cut(g)), g) <= 1628
        assert found == [None]
        assert len(searched) == len(set(searched)) == 40

    def test_runs_beyond_the_exhaustive_cap(self):
        g = k3_band_cycle(30, 5)
        w = find_forest_cut(g)
        assert w is not None and w.cut == vertex_set([0, 1, 2])
        with pytest.raises(ValueError, match="exhaustive search capped at 28 vertices"):
            find_forest_cut_exhaustive(g)


# C6 minus {0, 3} leaves the components {1, 2} and {4, 5}; the octahedron's
# N(0) = {1, 2, 4, 5} separates 0 from 3 and induces a 4-cycle
C6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
DIAMOND = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


class TestWitnessIsValid:
    @pytest.mark.parametrize("kind", ["forest", "independent"])
    def test_valid_witness_accepted(self, kind):
        assert witness_is_valid(C6, CutWitness(0b1001, 1, 4, kind))

    @pytest.mark.parametrize("g, witness", [
        pytest.param(C6, CutWitness(0b0011, 2, 4, "forest"), id="not-a-cut"),
        pytest.param(fixture("octahedron"), CutWitness(0b110110, 0, 3, "forest"),
                     id="forest-cut-with-cycle"),
        pytest.param(DIAMOND, CutWitness(0b0011, 2, 3, "independent"),
                     id="independent-cut-with-edge"),
        pytest.param(C6, CutWitness(0b1001, 1, 2, "forest"), id="representatives-together"),
        pytest.param(C6, CutWitness(0b1001, 0, 4, "forest"), id="representative-in-cut"),
        pytest.param(C6, CutWitness(0b1001, 1, 4, "acyclic"), id="unknown-kind"),
        pytest.param(fixture("octahedron"), CutWitness(0b110110, 0, 3, "acyclic"),
                     id="unknown-kind-cycle"),
        pytest.param(C6, CutWitness(0b1001 | 1 << 6, 1, 4, "forest"), id="cut-bit-at-order"),
        pytest.param(C6, CutWitness(0b1001 | ~C6.vertex_mask, 1, 4, "forest"),
                     id="negative-cut"),
        pytest.param(C6, CutWitness(0b1001, -1, 4, "forest"), id="negative-representative"),
        pytest.param(C6, CutWitness(0b1001, 1, 6, "independent"),
                     id="representative-outside"),
    ])
    def test_rejected(self, g, witness):
        assert not witness_is_valid(g, witness)

    def test_disconnected_graph_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="cut predicates require a connected graph"):
            witness_is_valid(g, CutWitness(0, 0, 2, "forest"))

    def test_edge_cut_is_a_forest_witness(self):
        # the diamond's {0, 1} is rejected above only for its kind
        assert witness_is_valid(DIAMOND, CutWitness(0b0011, 2, 3, "forest"))


def test_witnesses_pinned():
    finders = (find_forest_cut, find_independent_cut,
               lambda g: find_independent_cut_avoiding(g, 0))

    def witnesses(g):
        found = [finder(g) for finder in finders]
        return [None if w is None else (w.cut, w.rep_a, w.rep_b, w.kind) for w in found]

    assert stream_digest(witnesses) == WITNESS_SHA256


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
        assert all_minimal_forest_cuts(cycle_diagonals_universal(2)) == []
        for k in (3, 4):
            g = cycle_diagonals_universal(k)
            y = 2 * k
            seps = list(enumerate_minimal_separators(g))
            assert seps and all(s >> y & 1 for s in seps)
            assert all(s >> y & 1 for s in all_minimal_forest_cuts(g))

    def test_c4(self):
        assert all_minimal_forest_cuts(c4()) == [vertex_set([0, 2]), vertex_set([1, 3])]

    def test_complete_has_none(self):
        assert all_minimal_forest_cuts(fixture("k4")) == []


class TestUniversalVertexReduction:
    def test_wheel(self):
        u, rest = universal_vertex_reduction(fixture("wheel5"))
        assert u == 4
        assert rest == c4()

    def test_c5_has_none(self):
        assert universal_vertex_reduction(c5()) is None

    def test_order_one_has_none(self):
        assert universal_vertex_reduction(build_graph(1, [])) is None

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
            if reduction is None or g.size == g.order * (g.order - 1) // 2:
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
