import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import ORDER8_CONJECTURE2_FLAGS, census, census7_expected, components, symmetric_graphs
from forestcut import verify
from forestcut.constructions import conjecture2_family, fixture
from forestcut import cuts, graph
from forestcut.cuts import find_forest_cut, find_independent_cut, find_independent_cut_avoiding
from forestcut.graph import (
    Graph,
    build_graph,
    induced_is_forest,
    is_connected,
    iter_bits,
    parse_graph6,
    vertex_connectivity_at_least,
    write_graph6,
)
from forestcut.lp import build_primal
from forestcut.verify import (
    CLAIM_NAMES,
    CLAIMS,
    Claim,
    Density,
    _audit_rows,
    _canonical_rows,
    _graph_classes,
    audit_claim_inequalities,
    canonical_form,
    canonical_graph6,
    enumerate_connected_graphs,
    enumerate_graphs,
    ingest_graph6,
    run_check,
)

# counts of graphs and connected graphs per order, rederived below by a
# Burnside count plus an inverse Euler transform
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# graphs with loops on n vertices (OEIS A000666): the classes of a graph of
# order n with a vertex subset, one per extension of the order-n classes
GRAPHS_WITH_LOOPS = {1: 2, 2: 6, 3: 20, 4: 90, 5: 544, 6: 5096}
# the extensions among those whose new vertex has maximum degree, the only
# ones canonical augmentation refines
MAX_DEGREE_EXTENSIONS = {1: 2, 2: 4, 3: 11, 4: 37, 5: 184, 6: 1401}
# the extensions among those whose new vertex is also in the first cell of
# maximum degree of the refined unit partition, the only ones it searches
SEARCHED_EXTENSIONS = {1: 2, 2: 4, 3: 11, 4: 34, 5: 156, 6: 1046}
# sha256 of the graph6 lines of enumerate_graphs(1..7), 1,252 lines
ENUMERATION_SHA256 = "c41e8be3cba93709fcce96b1fbec12ed0581526a17afa27ebebfa519c065564a"
# order 8: A000088 classes, A001349 connected ones, the sha256 of the graph6
# lines and the classes per edge count (OEIS A008406, symmetric in m)
ORDER8_CLASSES, ORDER8_CONNECTED = 12346, 11117
ORDER8_SHA256 = "4c6706f1cfd8c384a45f7b0a71092ff197d8eb9aa4b086b42b1cd45ad1f4f039"
_ORDER8_HALF = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557]
ORDER8_BY_SIZE = _ORDER8_HALF + [1646] + _ORDER8_HALF[::-1]
# the order-8 graphs conjecture2 flags, in canonical graph6
ORDER8_CONJECTURE2_CANONICAL = ("GJ]KlK", "GJ]KnK", "GJem^_", "GKYZtk")


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


def generated_group(n, generators):
    """Every product of the generators, as tuples."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for q in generators:
            r = tuple(q[x] for x in p)
            if r not in group:
                group.add(r)
                frontier.append(r)
    return group


def vertex_orbits(n, group):
    return {frozenset(p[v] for p in group) for v in range(n)}


def seed_refine(adj, cells):
    """Refinement as first written: every cell starts unused and each cell
    splits into parts built vertex by vertex; ``verify._refine`` must agree."""
    used = set()
    while len(cells) < len(adj) and (splitter := next((c for c in cells if c not in used), 0)):
        used.add(splitter)
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts = {}
            while cell:
                low = cell & -cell
                k = (adj[low.bit_length() - 1] & splitter).bit_count()
                parts[k] = parts.get(k, 0) | low
                cell ^= low
            split += [parts[k] for k in sorted(parts)]
        cells = split
    return cells


def set_orbits(g):
    """The orbits of g's brute-force group on vertex sets, by least member."""
    n = g.order
    group = [p for p in permutations(range(n))
             if all(sum(1 << p[u] for u in iter_bits(g.adj[v])) == g.adj[p[v]] for v in range(n))]
    return {min(sum(1 << p[v] for v in iter_bits(s)) for p in group) for s in range(1 << n)}


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
        with pytest.raises(ValueError, match="built-in enumeration covers 1..8, got 9"):
            list(enumerate_graphs(9))

    def test_connectivity_decided_once_per_order(self, monkeypatch):
        first = list(enumerate_connected_graphs(7))
        tested = []
        monkeypatch.setattr(verify, "is_connected", lambda g: tested.append(g) or is_connected(g))
        assert list(enumerate_connected_graphs(7)) == first
        assert tested == []
        beyond = enumerate_connected_graphs(9)  # the cap is checked when the scan starts
        with pytest.raises(ValueError, match="built-in enumeration covers 1..8, got 9"):
            next(beyond)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_extensions_per_parent_order_match_a000666(self, n, monkeypatch):
        # one extension per orbit of a parent's group on vertex sets (A000666),
        # one search per extension whose new vertex has maximum degree and
        # lies in the first such root cell, at least one per class, and one
        # Graph per class; the parents' groups are not searched again
        extensions = [(g, s) for g, _ in _graph_classes(n) for s in set_orbits(g)]
        assert len(extensions) == GRAPHS_WITH_LOOPS[n]
        topped = sum(all(g.degree(u) + (s >> u & 1) <= s.bit_count() for u in range(n))
                     for g, s in extensions)
        assert topped == MAX_DEGREE_EXTENSIONS[n]
        searched, built = [], []
        monkeypatch.setattr(verify, "_canonical_rows",
                            lambda adj, root: searched.append(adj) or _canonical_rows(adj, root))
        trusted = Graph._trusted
        monkeypatch.setattr(Graph, "_trusted",
                            staticmethod(lambda order, adj: built.append(adj) or trusted(order, adj)))
        assert len(_graph_classes.__wrapped__(n + 1)) == ALL_COUNTS[n + 1]
        assert ALL_COUNTS[n + 1] <= len(searched) <= topped
        assert len(searched) == SEARCHED_EXTENSIONS[n]
        assert len(built) == ALL_COUNTS[n + 1]

    def test_refinement_matches_the_seed_at_every_node(self, monkeypatch):
        # every refinement of every search over the graphs of order <= 7 and
        # a shuffled copy of each, whether the search refines its root or is
        # handed it, gives the cells that refining from nothing used gives
        refine = verify._refine
        checked = []

        def compared(adj, cells, used=()):
            refined = refine(adj, cells, used)
            assert refined == seed_refine(adj, cells)
            checked.append(cells)
            return refined

        monkeypatch.setattr(verify, "_refine", compared)
        rng = random.Random(25)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                perm = rng.sample(range(n), n)
                shuffled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                for h in (g, shuffled):
                    assert _canonical_rows(h.adj)[0] == g.adj
                    assert _canonical_rows(h.adj, refine(h.adj, [(1 << n) - 1]))[0] == g.adj
        # each search not handed its root refines it here, then its nodes
        assert len(checked) > 2 * 1252

    def test_order8_within_budget(self):
        _graph_classes.cache_clear()
        start = time.perf_counter()
        graphs = list(enumerate_graphs(8))
        elapsed = time.perf_counter() - start
        assert len(graphs) == ORDER8_CLASSES
        assert sum(map(is_connected, graphs)) == ORDER8_CONNECTED
        text = "".join(write_graph6(g) + "\n" for g in graphs)
        assert hashlib.sha256(text.encode()).hexdigest() == ORDER8_SHA256
        by_size = [0] * 29
        for g in graphs:
            by_size[g.size] += 1
        assert by_size == ORDER8_BY_SIZE
        assert elapsed <= 4.0, f"orders 1..8 took {elapsed:.2f} s of a 4 s budget"

    def test_search_generates_the_automorphism_group(self):
        # the generators act on the canonical rows, also for a shuffled input
        rng = random.Random(12)
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                edges = {frozenset(e) for e in g.edges()}
                brute = {p for p in permutations(range(n))
                         if {frozenset((p[u], p[v])) for u, v in edges} == edges}
                perm = rng.sample(range(n), n)
                shuffled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                for h in (g, shuffled):
                    rows, autos, pos = _canonical_rows(h.adj)
                    assert rows == g.adj
                    assert all(rows[pos[v]] == sum(1 << pos[u] for u in iter_bits(h.adj[v]))
                               for v in range(n))
                    assert {tuple(p) for p in autos} <= brute
                    group = generated_group(n, autos)
                    assert vertex_orbits(n, group) == vertex_orbits(n, brute)
                    assert group == brute

    def test_canonical_strings_pinned(self):
        text = "\n".join(write_graph6(g) for n in range(1, 8) for g in enumerate_graphs(n)) + "\n"
        assert text.count("\n") == 1252
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_SHA256

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

    def test_every_class_up_to_7_survives_three_relabelings(self):
        rng = random.Random(9)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                form = canonical_graph6(g)
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                    assert canonical_graph6(relabeled) == form

    def test_rook_and_shrikhande_union_in_either_order(self):
        # Both are strongly regular with parameters (16, 6, 2, 2), so
        # refinement never tells them apart and the search branches in both.
        # Automorphisms found below a vertex of one move the vertices singled
        # out in the other; pruning there with them loses the least leaf.
        rook = [(a, b) for a in range(16) for b in range(a + 1, 16)
                if (a // 4 == b // 4) != (a % 4 == b % 4)]
        steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
        shrikhande = [(a, b) for a in range(16) for b in range(a + 1, 16)
                      if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in steps]

        def union(first, second):
            return build_graph(32, first + [(u + 16, v + 16) for u, v in second])

        assert canonical_graph6(union(rook, shrikhande)) == canonical_graph6(union(shrikhande, rook))

    @pytest.mark.parametrize("name", sorted(symmetric_graphs()))
    def test_symmetric_graph_finishes_within_a_second(self, name):
        g = symmetric_graphs()[name]
        start = time.perf_counter()
        canonical_graph6(g)
        assert time.perf_counter() - start < 1.0


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

    def test_undecodable_byte_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"Bw\n\xffw\nBw\n")
        corpus = ingest_graph6(str(path))
        assert len(list(corpus)) == 2
        assert corpus.malformed == [(2, "bad order byte 255")]

    def test_non_ascii_whitespace_is_a_malformed_line(self, tmp_path):
        # latin-1 no-break space (0xa0) and next-line (0x85) are not graph6 whitespace
        path = tmp_path / "ws.g6"
        path.write_bytes(b"Bw\xa0\nBw\x85\n Bw \r\n")
        corpus = ingest_graph6(str(path))
        assert len(list(corpus)) == 1
        assert corpus.malformed == [(1, "expected 1 data bytes, got 2"),
                                    (2, "expected 1 data bytes, got 2")]

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
        holds = CLAIMS["theorem1"].holds
        # K_{1,3}: its centre lies in its only separator
        assert not holds(build_graph(4, [(0, 3), (1, 3), (2, 3)]))
        # the diamond K4 - e: its one separator is an edge
        assert not holds(build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
        # C4: its two separators are disjoint independent pairs
        assert holds(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            run_check("conjecture3", [], "none")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        corpus = list(enumerate_connected_graphs(5))
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_check("chenyu", corpus, "n5", workers)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool records its size and maps in-process: no real
        # process starts, however many workers are asked for
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        corpus = list(enumerate_connected_graphs(5))
        expected = run_check("conjecture1", corpus, "n5")
        assert run_check("conjecture1", corpus, "n5", workers=1000) == expected
        assert run_check("conjecture1", corpus, "n5", workers=2) == expected
        assert started == [3, 2]
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert run_check("conjecture1", corpus, "n5", workers=1000) == expected
        assert started == [3, 2]

    def test_pool_fed_in_bounded_batches(self, monkeypatch):
        # Executor.map submits all it is handed before it yields, so a
        # stand-in pool records how many graphs each map call receives
        handed = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                items = list(iterable)
                handed.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        # a claim that flags every unicyclic graph, so the report holds graphs
        unicyclic = Claim(Density(0, 10**6), 1, 0, lambda g: g.size != g.order)
        monkeypatch.setitem(verify.CLAIMS, "unicyclic", unicyclic)
        graphs = list(enumerate_connected_graphs(6))
        largest = []
        for copies in (25, 50):
            corpus = graphs * copies
            handed.clear()
            expected = run_check("unicyclic", corpus, "n6")
            assert run_check("unicyclic", iter(corpus), "n6", workers=2) == expected
            assert sum(handed) == len(corpus) and len(handed) > 1
            largest.append(max(handed))
        assert expected.scanned == 5600 and len(expected.counterexamples) == 13 * 50
        # the batch does not grow with the corpus
        assert largest[0] == largest[1] < 2800

    def test_reports_equal_across_batches(self):
        # more graphs than one batch, through a real two-process pool
        corpus = list(enumerate_connected_graphs(6)) * 25
        sequential = run_check("theorem2", corpus, "n6x25", workers=1)
        assert run_check("theorem2", iter(corpus), "n6x25", workers=2) == sequential
        assert sequential.scanned == 2800

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

    def test_order8_sweep_flags_only_the_pinned_graphs(self):
        report = run_check("conjecture2", enumerate_connected_graphs(8), "order8")
        assert report.scanned == ORDER8_CONNECTED
        assert report.counterexamples == ORDER8_CONJECTURE2_CANONICAL
        pinned = sorted(canonical_graph6(parse_graph6(s)) for s in ORDER8_CONJECTURE2_FLAGS)
        assert list(report.counterexamples) == pinned


# the connectivity the reference asks of each claim, kept apart from CLAIMS:
# 1 where the claim's source states none, as the public finders take only
# connected graphs; CLAIMS asks 0 there and must give the same reports
STATED_CONNECTIVITY = {"conjecture1": 1, "theorem2": 1, "chenyu": 1, "theorem1": 2, "conjecture2": 3}


def public_finder_flags(name: str, g: Graph) -> bool:
    """Whether claim ``name`` flags g, with each condition read from the
    public finders, which check connectivity again on entry."""
    claim = CLAIMS[name]
    if g.order < claim.min_order or not claim.density.admits(g.order, g.size):
        return False
    if not vertex_connectivity_at_least(g, STATED_CONNECTIVITY[name]):
        return False
    if name in ("conjecture1", "theorem2"):
        return find_forest_cut(g) is None
    if name == "chenyu":
        return find_independent_cut(g) is None
    if name == "theorem1":
        return any(find_independent_cut_avoiding(g, u) is None for u in range(g.order))
    return not any(induced_is_forest(g, g.adj[v]) for v in range(g.order))


def mixed_corpus() -> list[Graph]:
    """Every graph of order 1..6, connected or not, the pinned order-8
    conjecture2 graphs, and seeded graphs of orders 7..14 around m = 2n."""
    rng = random.Random(23)
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    corpus += [parse_graph6(s) for s in ORDER8_CONJECTURE2_FLAGS]
    for _ in range(300):
        n = rng.randint(7, 14)
        pairs = list(combinations(range(n), 2))
        corpus.append(build_graph(n, rng.sample(pairs, rng.randint(n - 3, 3 * n))))
    return corpus


def whole_graph_searches(monkeypatch, run) -> int:
    """How many component searches ``run()`` makes over a whole vertex set,
    the search a connectivity test makes."""
    count = [0]
    search = graph.component_neighbourhoods

    def counted(adj, sub):
        count[0] += sub == (1 << len(adj)) - 1
        return search(adj, sub)

    monkeypatch.setattr(graph, "component_neighbourhoods", counted)
    monkeypatch.setattr(cuts, "component_neighbourhoods", counted)
    run()
    return count[0]


class TestTrustingClaimPath:
    """The claims walk the separators without the finders' entry check,
    which ``Claim.flags`` has made redundant; the reports must not change."""

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_reports_match_the_public_finders(self, claim):
        corpus = mixed_corpus()
        assert any(not is_connected(g) for g in corpus)
        assert {1, 2} <= {g.order for g in corpus}
        flagged = sorted(canonical_graph6(g) for g in corpus if public_finder_flags(claim, g))
        report = run_check(claim, corpus, "mixed")
        assert report == verify.CheckReport(claim, "mixed", len(corpus), tuple(flagged))

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_builtin_scan_tests_connectivity_once_per_graph(self, claim, monkeypatch):
        # the first enumerate_connected_graphs(7) tests each of the 1,044 graphs
        # of order 7 and a later one none; the claim itself searches no whole graph
        verify._connected_classes.cache_clear()
        scan = lambda: run_check(claim, enumerate_connected_graphs(7))
        assert whole_graph_searches(monkeypatch, scan) == ALL_COUNTS[7]
        assert whole_graph_searches(monkeypatch, scan) == 0

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_connected_corpus_spends_no_search_on_connectivity(self, claim, monkeypatch):
        corpus = [g for g in mixed_corpus() if is_connected(g)]
        assert len(corpus) > 300
        assert whole_graph_searches(monkeypatch, lambda: run_check(claim, corpus)) == 0

    def test_theorem1_walks_no_more_than_a_walk_per_vertex(self, monkeypatch):
        walked = [0]
        walk = cuts._minimal_separators

        def counted(g):
            for item in walk(g):
                walked[0] += 1
                yield item

        monkeypatch.setattr(cuts, "_minimal_separators", counted)
        monkeypatch.setattr(verify, "_minimal_separators", counted)
        theorem1 = CLAIMS["theorem1"]
        checked = 0
        for g in mixed_corpus():
            if g.order < 3 or not theorem1.density.admits(g.order, g.size):
                continue
            if not vertex_connectivity_at_least(g, 2):
                continue
            per_vertex = []
            for u in range(g.order):
                walked[0] = 0
                find_independent_cut_avoiding(g, u)
                per_vertex.append(walked[0])
            walked[0] = 0
            assert theorem1.holds(g)
            assert walked[0] == max(per_vertex)
            checked += 1
        assert checked > 20


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
        graphs = census(6)
        assert len(graphs) == 2
        got = sorted(canonical_graph6(g) for g in graphs)
        want = sorted(canonical_graph6(fixture(n)) for n in ("fig1_a", "fig1_b"))
        assert got == want

    def test_order7(self):
        # exactly fig1_c, fig1_d and the non-planar third graph; the atlas
        # oracle below re-derives the same set
        graphs = census(7)
        got = sorted(canonical_graph6(g) for g in graphs)
        want = sorted(canonical_graph6(g) for g in census7_expected())
        assert got == want
        for g in graphs:
            assert g.size == 11
            assert find_forest_cut(g) is not None

    def test_census_members_are_sparse_and_3_connected(self):
        from forestcut.graph import vertex_set

        for n in (6, 7):
            for g in census(n):
                assert Fraction(g.size) < Fraction(11, 5) * n - Fraction(18, 5)
                assert min(g.degree(v) for v in range(n)) >= 3
                for size in (1, 2):
                    for comb in combinations(range(n), size):
                        s = vertex_set(comb)
                        assert len(components(g, g.vertex_mask & ~s)) == 1


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
        got = [_to_networkx(nx, g) for g in census(n)]
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


def reference_audit_rows(g):
    """The six row fields of the audit, as hand-written inequalities over the
    degree profile; an oracle independent of ``lp.build_primal``."""
    n = g.order
    degs = [g.degree(v) for v in range(n)]
    n_i = {i: 0 for i in range(4, n)}
    for d in degs:
        if d >= 4:
            n_i[d] += 1
    n_4_j = {j: 0 for j in range(5, n)}
    prime = doubleprime = 0
    partition_valid = True
    for v in range(n):
        if degs[v] != 4:
            continue
        nbr_degs = [degs[u] for u in g.neighbors(v)]
        top = max(nbr_degs)
        if top <= 4:
            partition_valid = False
            continue
        n_4_j[top] += 1
        if top == 6:
            if nbr_degs.count(6) == 1:
                prime += 1
            else:
                doubleprime += 1
    n4 = n_i.get(4, 0)
    return {
        "partition_row_deg4": partition_valid and n4 == sum(n_4_j.values()),
        "partition_row_top6": n_4_j.get(6, 0) == prime + doubleprime,
        "weighted_degree_row": sum(j * n_i.get(j, 0) for j in range(5, n)) >= 2 * n4,
        "deg5_capacity_row": 4 * n_i.get(5, 0) >= 3 * n_4_j.get(5, 0) + prime,
        "deg6_capacity_row": 6 * n_i.get(6, 0) >= prime + 2 * doubleprime,
        "high_degree_rows": all(j * n_i.get(j, 0) >= n_4_j.get(j, 0) for j in range(7, n)),
    }


def _sparse_random_graph(n, seed):
    """Seeded connected graph with n <= m < 3n where the order allows, sparse
    enough that degree-4 vertices are common (unlike conftest's graphs)."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = min(rng.randrange(n, 3 * n), n * (n - 1) // 2)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, sorted(edges))


class TestAuditMatchesReference:
    @staticmethod
    def _rows(g):
        record = audit_claim_inequalities(g)
        return {name: getattr(record, name) for name in reference_audit_rows(g)}

    @pytest.mark.parametrize("n", [8, 9, 20])
    def test_reads_every_row_but_the_vertex_count(self, n):
        # vertex-count (the n_i sum to n) fails on any graph with a vertex of
        # degree below 4, so the audit leaves it out
        read = [row_id for ids in _audit_rows(n).values() for row_id in ids]
        assert sorted(read + ["vertex-count"]) == sorted(r.row_id for r in build_primal(n).rows)

    def test_every_graph_up_to_order7(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert self._rows(g) == reference_audit_rows(g), write_graph6(g)

    def test_seeded_random_graphs_up_to_order30(self):
        outcomes = set()
        for i in range(300):
            g = _sparse_random_graph(8 + i % 23, 5000 + i)
            want = reference_audit_rows(g)
            assert self._rows(g) == want, write_graph6(g)
            outcomes.update(want.items())
        # the top6 split is exact by construction, and the deg6 and deg{j}
        # capacity rows count edges into vertices of one degree, so they hold
        # on every graph; the other three both hold and fail in this sample
        for name in ("partition_row_deg4", "weighted_degree_row", "deg5_capacity_row"):
            assert {(name, True), (name, False)} <= outcomes
