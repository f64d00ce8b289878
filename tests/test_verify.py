from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import ORDER8_CONJECTURE2_FLAGS, census7_expected
from forestcut.constructions import conjecture2_family, fixture
from forestcut.cuts import find_forest_cut, find_independent_cut
from forestcut.graph import build_graph, is_connected, parse_graph6, write_graph6
from forestcut.verify import (
    CLAIM_NAMES,
    CLAIMS,
    Claim,
    Density,
    audit_claim_inequalities,
    canonical_form,
    canonical_graph6,
    enumerate_connected_graphs,
    enumerate_graphs,
    figure1_census,
    ingest_graph6,
    run_check,
)

# counts of graphs and connected graphs per order, rederived below by a
# Burnside count plus an inverse Euler transform
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def burnside_graph_classes(n):
    """Isomorphism classes of graphs on n labeled vertices, by Burnside."""
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        cycles = 0
        for i, (a, b) in enumerate(pairs):
            if seen[i]:
                continue
            cycles += 1
            cur = (a, b)
            while True:
                idx = pair_index[tuple(sorted((perm[cur[0]], perm[cur[1]])))]
                if seen[idx]:
                    break
                seen[idx] = True
                cur = pairs[idx]
        total += 2 ** cycles
    import math

    return total // math.factorial(n)


def connected_from_all(all_counts):
    """Inverse Euler transform: recover connected counts from total counts."""
    top = max(all_counts)
    a = {n: all_counts[n] for n in range(1, top + 1)}
    b = {}
    c = {}
    for n in range(1, top + 1):
        b[n] = n * a[n] - sum(b[k] * a[n - k] for k in range(1, n))
        divisor_sum = sum(d * c[d] for d in range(1, n) if n % d == 0)
        c[n] = (b[n] - divisor_sum) // n
    return c


class TestEnumeration:
    def test_tiny_counts(self):
        assert len(list(enumerate_connected_graphs(3))) == 2
        assert len(list(enumerate_connected_graphs(4))) == 6
        assert len(list(enumerate_connected_graphs(5))) == 21

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_burnside_oracle(self, n):
        if n <= 5:
            assert burnside_graph_classes(n) == ALL_COUNTS[n]
        assert len(list(enumerate_graphs(n))) == ALL_COUNTS[n]

    def test_burnside_at_6_and_7(self):
        assert burnside_graph_classes(6) == ALL_COUNTS[6]
        assert burnside_graph_classes(7) == ALL_COUNTS[7]

    def test_connected_counts_from_euler_inversion(self):
        derived = connected_from_all(ALL_COUNTS)
        for n in range(1, 8):
            assert derived[n] == CONNECTED_COUNTS[n]
            assert len(list(enumerate_connected_graphs(n))) == CONNECTED_COUNTS[n]

    def test_direct_isomorphism_oracle_up_to_5(self):
        # dedupe all labeled graphs by their permuted edge sets
        for n in range(2, 6):
            pairs = list(combinations(range(n), 2))
            classes = set()
            connected = 0
            for bits in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                key = min(
                    tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
                    for perm in permutations(range(n))
                )
                if key in classes:
                    continue
                classes.add(key)
                if is_connected(build_graph(n, edges)):
                    connected += 1
            assert len(classes) == ALL_COUNTS[n]
            assert connected == CONNECTED_COUNTS[n]

    def test_representatives_are_canonical_and_sorted(self):
        reps = list(enumerate_connected_graphs(5))
        assert all(canonical_form(g) == g for g in reps)
        keys = [write_graph6(g) for g in reps]
        assert len(set(keys)) == len(keys)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="built-in enumeration covers 1..7, got 8"):
            list(enumerate_graphs(8))

    def test_graph6_round_trip_over_whole_corpus(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert parse_graph6(write_graph6(g)) == g


class TestCanonicalForm:
    def test_isomorphic_graphs_share_form(self):
        a = fixture("fig1_a")
        b = fixture("k33")
        assert canonical_graph6(a) == canonical_graph6(b)

    def test_relabeling_invariance(self, random_connected_graph):
        import random

        for seed in range(10):
            g = random_connected_graph(7, seed)
            perm = list(range(7))
            random.Random(seed).shuffle(perm)
            relabeled = build_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_graph6(g) == canonical_graph6(relabeled)

    def test_non_isomorphic_graphs_differ(self):
        assert canonical_graph6(fixture("prism")) != canonical_graph6(fixture("k33"))


class TestIngest:
    def test_reads_graphs_and_counts_bad_lines(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\n\n!!\n@\n")
        corpus = ingest_graph6(str(path))
        graphs = list(corpus)
        assert len(graphs) == 2
        assert graphs[0].order == 4 and graphs[0].size == 6
        assert graphs[1].order == 1
        assert len(corpus.malformed) == 1
        assert corpus.malformed[0][0] == 3
        assert "malformed-lines=1" in corpus.describe()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        corpus = ingest_graph6(str(path))
        assert list(corpus) == []
        assert corpus.malformed == []


class TestCheckers:
    def test_conjecture1_examples(self):
        octa = fixture("octahedron")
        report = run_check("conjecture1", [octa], "octa")
        assert report.scanned == 1 and report.counterexamples == ()
        p3 = build_graph(3, [(0, 1), (1, 2)])
        assert run_check("conjecture1", [p3], "p3").counterexamples == ()

    def test_theorem2_examples(self):
        fig1_c = fixture("fig1_c")
        assert Fraction(fig1_c.size) < Fraction(11, 5) * 7 - Fraction(18, 5)
        assert find_forest_cut(fig1_c) is not None
        report = run_check("theorem2", [fig1_c, fixture("k4")], "pair")
        assert report.counterexamples == ()

    def test_chen_yu_prism_skipped(self):
        prism = fixture("prism")
        assert prism.size == 2 * prism.order - 3
        assert find_independent_cut(prism) is None
        assert run_check("chenyu", [prism], "prism").counterexamples == ()

    def test_conjecture2_examples(self):
        g1 = conjecture2_family(1)
        octa = fixture("octahedron")
        report = run_check("conjecture2", [g1, octa], "pair")
        assert report.counterexamples == ()

    def test_theorem1_on_small_corpus(self):
        corpus = list(enumerate_connected_graphs(5))
        assert run_check("theorem1", corpus, "n5").counterexamples == ()

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            run_check("conjecture3", [], "none")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        corpus = list(enumerate_connected_graphs(5))
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_check("chenyu", corpus, "n5", workers)

    def test_deleting_a_prism_edge_restores_the_guarantee(self):
        # one edge below 2n-3 an independent cut must reappear
        from forestcut.graph import delete_edge

        trimmed = delete_edge(fixture("prism"), 0, 3)
        assert trimmed.size < 2 * trimmed.order - 3
        assert find_independent_cut(trimmed) is not None
        assert run_check("chenyu", [trimmed], "trimmed-prism").counterexamples == ()

    def test_flagged_reports_sort_canonically(self, monkeypatch):
        # synthetic claim so the flagged path runs on a real corpus
        from forestcut import verify as verify_module

        evenorder = Claim(Density(0, 10**6), 1, 0, lambda g: g.order % 2 == 1)
        monkeypatch.setitem(verify_module.CLAIMS, "evenorder", evenorder)
        corpus = [fixture("prism"), fixture("fig1_c"), fixture("k4"), fixture("k33")]
        report = run_check("evenorder", corpus, "mixed")
        assert report.scanned == 4
        assert len(report.counterexamples) == 3
        assert list(report.counterexamples) == sorted(report.counterexamples)
        assert canonical_graph6(fixture("fig1_c")) not in report.counterexamples
        for g6 in report.counterexamples:
            flagged = parse_graph6(g6)
            assert flagged.order % 2 == 0

    def test_worker_invariance(self):
        corpus = list(enumerate_connected_graphs(6))
        sequential = run_check("theorem2", corpus, "n6", workers=1)
        parallel = run_check("theorem2", corpus, "n6", workers=4)
        assert sequential == parallel
        assert sequential.scanned == 112

    def test_report_format(self):
        report = run_check("conjecture1", [fixture("octahedron")], "octa")
        assert report.format() == "conjecture1 octa 1 0\n"


    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_order8_flags(self, claim):
        graphs = [parse_graph6(s) for s in ORDER8_CONJECTURE2_FLAGS]
        report = run_check(claim, graphs, "order8")
        assert report.scanned == 4
        flagged = sorted(canonical_graph6(g) for g in graphs) if claim == "conjecture2" else []
        assert list(report.counterexamples) == flagged


# the claims' densities as the Fraction formulas they are stated with
FRACTION_DENSITIES = {
    "conjecture1": (Fraction(3), Fraction(-6)),
    "theorem2": (Fraction(11, 5), Fraction(-18, 5)),
    "chenyu": (Fraction(2), Fraction(-3)),
    "theorem1": (Fraction(2), Fraction(-3)),
    "conjecture2": (Fraction(7, 3), Fraction(-7, 3)),
}
PARSED_DENSITIES = {
    "11/5n-18/5": (Fraction(11, 5), Fraction(-18, 5)),
    "3n-6": (Fraction(3), Fraction(-6)),
    "2n-3": (Fraction(2), Fraction(-3)),
    "7/3n-7/3": (Fraction(7, 3), Fraction(-7, 3)),
    "5/2n": (Fraction(5, 2), Fraction(0)),
}


def _disagreements(density, slope, offset):
    """(n, m) pairs where the integer test and m < slope*n + offset differ."""
    out = []
    for n in range(1, 65):
        bound = slope * n + offset
        for m in range(n * (n - 1) // 2 + 1):
            if density.admits(n, m) != (Fraction(m) < bound):
                out.append((n, m))
    return out


class TestDensity:
    @pytest.mark.parametrize("claim", sorted(FRACTION_DENSITIES))
    def test_claim_rows_match_fraction_formula(self, claim):
        assert _disagreements(CLAIMS[claim].density, *FRACTION_DENSITIES[claim]) == []

    @pytest.mark.parametrize("text", sorted(PARSED_DENSITIES))
    def test_parsed_densities_match_fraction_formula(self, text):
        assert _disagreements(Density.parse(text), *PARSED_DENSITIES[text]) == []


class TestIngestedCorpusWorkflow:
    def test_sweeps_over_a_graph6_file_of_larger_graphs(self, tmp_path, random_connected_graph):
        # orders above the built-in enumerator arrive as graph6 corpora
        graphs = [random_connected_graph(8 + i % 5, 3000 + i) for i in range(40)]
        path = tmp_path / "larger.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        corpus = ingest_graph6(str(path))
        report = run_check("theorem2", corpus, workers=2)
        assert report.scanned == 40
        assert report.counterexamples == ()
        assert report.corpus == str(path)
        again = run_check("conjecture1", ingest_graph6(str(path)))
        assert again.scanned == 40
        assert again.counterexamples == ()


class TestFigure1Census:
    def test_order6(self):
        census = figure1_census(6)
        assert len(census) == 2
        got = sorted(canonical_graph6(g) for g in census)
        want = sorted(canonical_graph6(fixture(n)) for n in ("fig1_a", "fig1_b"))
        assert got == want

    def test_order7(self):
        # exactly fig1_c, fig1_d and the non-planar third graph; the atlas
        # oracle below re-derives the same set
        census = figure1_census(7)
        got = sorted(canonical_graph6(g) for g in census)
        want = sorted(canonical_graph6(g) for g in census7_expected())
        assert got == want
        for g in census:
            assert g.size == 11
            assert find_forest_cut(g) is not None

    def test_census_members_are_sparse_and_3_connected(self):
        from forestcut.graph import components, vertex_set

        for n in (6, 7):
            for g in figure1_census(n):
                assert Fraction(g.size) < Fraction(11, 5) * n - Fraction(18, 5)
                assert min(g.degree(v) for v in range(n)) >= 3
                for size in (1, 2):
                    for comb in combinations(range(n), size):
                        s = vertex_set(comb)
                        assert len(components(g, g.vertex_mask & ~s)) == 1

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match=r"census is defined for n in \{6, 7\}, got 8"):
            figure1_census(8)


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def _same_graphs_up_to_isomorphism(nx, left, right):
    """True when isomorphism pairs the graphs of ``left`` and ``right`` one to one."""
    return (
        len(left) == len(right)
        and all(sum(nx.is_isomorphic(a, b) for b in right) == 1 for a in left)
        and all(sum(nx.is_isomorphic(a, b) for a in left) == 1 for b in right)
    )


def _atlas_census(nx, n):
    """The census filter applied to the networkx atlas of all graphs on <= 7 vertices."""
    bound = Fraction(11, 5) * n - Fraction(18, 5)
    return [
        a
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() == n
        and a.number_of_edges() < bound
        and nx.is_connected(a)
        and nx.node_connectivity(a) >= 3
    ]


class TestFigure1CensusNetworkxOracle:
    @pytest.mark.parametrize("n, count", [(6, 2), (7, 3)])
    def test_census_matches_atlas(self, n, count):
        nx = pytest.importorskip("networkx")
        atlas = _atlas_census(nx, n)
        assert len(atlas) == count
        got = [_to_networkx(nx, g) for g in figure1_census(n)]
        assert _same_graphs_up_to_isomorphism(nx, got, atlas)

    def test_expected_order7_matches_atlas(self):
        nx = pytest.importorskip("networkx")
        want = [_to_networkx(nx, g) for g in census7_expected()]
        assert _same_graphs_up_to_isomorphism(nx, want, _atlas_census(nx, 7))

    def test_order7_planarity_split(self):
        # the pictured fixtures are planar; the third census graph is not
        nx = pytest.importorskip("networkx")
        fig1_c, fig1_d, third = (_to_networkx(nx, g) for g in census7_expected())
        assert nx.check_planarity(fig1_c)[0]
        assert nx.check_planarity(fig1_d)[0]
        assert not nx.check_planarity(third)[0]


class TestAudit:
    def test_octahedron_fails_local_rows(self):
        record = audit_claim_inequalities(fixture("octahedron"))
        assert not record.neighborhood_degree_sums  # 4-regular: sums are 16
        assert not record.partition_row_deg4
        assert not record.max_two_degree4_neighbors
        assert record.four_connected

    def test_icosahedron_vacuously_holds(self):
        record = audit_claim_inequalities(fixture("icosahedron"))
        assert record.neighborhood_degree_sums
        assert record.max_two_degree4_neighbors
        assert record.degree5_not_all_degree4
        assert record.partition_row_deg4
        assert record.four_connected

    def test_connectivity_predicate_on_sparse_graphs(self):
        assert not audit_claim_inequalities(fixture("prism")).four_connected
        assert not audit_claim_inequalities(fixture("k4")).four_connected
        assert not audit_claim_inequalities(
            build_graph(6, [(0, 1), (2, 3), (4, 5)])
        ).four_connected

    def test_deterministic(self):
        g = conjecture2_family(2)
        assert audit_claim_inequalities(g) == audit_claim_inequalities(g)

    def test_high_degree_rows(self):
        g = conjecture2_family(3)
        record = audit_claim_inequalities(g)
        assert record.partition_row_top6
        assert record.high_degree_rows
