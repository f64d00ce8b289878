import copy
import importlib.util
import pickle
import random
import re
from itertools import combinations
from pathlib import Path

import pytest

from conftest import assert_validated, components
from forestcut.constructions import conjecture2_family, fixture
from forestcut.graph import (
    Graph,
    _ASCII_WHITESPACE,
    _long_form_order,
    build_graph,
    delete_edge,
    induced_subgraph,
    induced_is_forest,
    is_vertex_cut,
    masks_of_size,
    parse_edge_list,
    parse_graph6,
    vertex_connectivity_at_least,
    vertex_set,
    write_edge_list,
    write_graph6,
)
from forestcut.lp import build_primal, check_feasible, profile_point
from forestcut.planar import random_stacked_triangulation
from forestcut.verify import enumerate_graphs


def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildGraph:
    def test_k4(self):
        g = k4()
        assert g.order == 4 and g.size == 6

    def test_k1(self):
        g = build_graph(1, [])
        assert g.order == 1 and g.size == 0

    def test_loop_edge_rejected(self):
        with pytest.raises(ValueError, match="loop edge at vertex 0"):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) outside order 3"):
            build_graph(3, [(0, 3)])

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order 129 exceeds 128"):
            build_graph(129, [])

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_immutable_hashable_value(self):
        g = k4()
        with pytest.raises(AttributeError, match="^cannot assign to field 'order'$"):
            g.order = 5
        with pytest.raises(AttributeError, match="^cannot assign to field 'foo'$"):
            g.foo = 1
        assert hash(g) == hash(build_graph(4, combinations(range(4), 2)))
        assert len({g, k4(), c4()}) == 2
        assert repr(g) == "Graph(order=4, m=6)"

    def test_delete_non_edge_rejected(self):
        with pytest.raises(ValueError, match=r"^\(0, 2\) is not an edge$"):
            delete_edge(c4(), 0, 2)

    def test_handshake(self, random_connected_graph):
        for seed in range(10):
            g = random_connected_graph(8, seed)
            assert sum(g.degree(v) for v in range(g.order)) == 2 * g.size


class TestGraph6:
    def test_k1_is_at_sign(self):
        assert write_graph6(build_graph(1, [])) == "@"
        assert parse_graph6("@") == build_graph(1, [])

    def test_k4_encoding(self):
        # 'C' is 63+4; six 1-bits pad to 111111 00... -> 63+63 = '~'
        assert write_graph6(k4()) == "C~"
        assert parse_graph6("C~") == k4()

    def test_blank_line_rejected(self):
        with pytest.raises(ValueError, match="^empty graph6 line$"):
            parse_graph6("  ")

    def test_truncated_line_rejected(self):
        with pytest.raises(ValueError, match="expected 1 data bytes, got 0"):
            parse_graph6("C")

    def test_bad_byte_rejected(self):
        with pytest.raises(ValueError, match="expected 1 data bytes, got 2"):
            parse_graph6("C!!")
        with pytest.raises(ValueError, match=r"data byte 33 outside 63\.\.126"):
            parse_graph6("C!")

    def test_long_form_above_order_62(self):
        # '~', then 63 as three 6-bit bytes 0, 0, 63; 63 * 62 / 2 bits fill 326 bytes
        assert write_graph6(build_graph(63, [])) == "~??~" + "?" * 326
        assert write_graph6(build_graph(62, [])) == "}" + "?" * 316
        for n, head in ((64, "~?@?"), (127, "~?@~"), (128, "~?A?")):
            g = build_graph(n, [(0, n - 1), (n - 2, n - 1)])
            line = write_graph6(g)
            assert line.startswith(head) and parse_graph6(line) == g

    @pytest.mark.parametrize("line, message", [
        ("~?A@", "long-form graph6 order 129 outside 63..128"),
        ("~??}", "long-form graph6 order 62 outside 63..128"),
        ("~~??????", r"graph6 order above 258047, outside 63\.\.128"),
        ("~??", "long-form graph6 needs three order bytes"),
        ("~?!~", "bad order byte 33"),
        ("~??~???", "expected 326 data bytes, got 3"),
    ])
    def test_long_form_out_of_range_rejected(self, line, message):
        with pytest.raises(ValueError, match=message):
            parse_graph6(line)

    def test_long_form_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(63, 129):
            g = random_stacked_triangulation(n, n).graph
            line = write_graph6(g)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            assert line.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
            back = nx.from_graph6_bytes(line.encode())
            assert parse_graph6(line) == build_graph(n, back.edges()) == g

    def test_order_byte_above_126_rejected(self):
        # 127 would read as order 64, which takes the long form
        with pytest.raises(ValueError, match="bad order byte 127"):
            parse_graph6(chr(127) + "?" * 336)

    def test_non_ascii_order_byte_rejected(self):
        with pytest.raises(ValueError, match="bad order byte 233"):
            parse_graph6("\u00e9w")

    def test_only_ascii_whitespace_is_stripped(self):
        k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert parse_graph6("Bw\r\n") == parse_graph6(" Bw ") == k3
        for space in ("\u3000", "\xa0", "\x85"):
            with pytest.raises(ValueError, match="expected 1 data bytes, got 2"):
                parse_graph6("Bw" + space)

    def test_round_trip_random(self, random_connected_graph):
        for seed in range(25):
            g = random_connected_graph(4 + seed % 9, seed)
            assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_fixtures(self):
        for name in ("k4", "k33", "prism", "octahedron", "icosahedron", "wheel5"):
            g = fixture(name)
            assert parse_graph6(write_graph6(g)) == g


def bitwise_parse_graph6(text: str) -> Graph:
    """Reference for ``parse_graph6``: its earlier decode, one vertex pair at
    a time, with the same checks and messages."""
    line = text.strip(_ASCII_WHITESPACE)
    if not line:
        raise ValueError("empty graph6 line")
    head = ord(line[0])
    if head == 126:
        n = _long_form_order(line[1:4])
        body = line[4:]
    else:
        if not 63 <= head < 126:
            raise ValueError(f"bad order byte {head}")
        n = head - 63
        body = line[1:]
    if n < 1:
        raise ValueError("graph6 order 0 not representable here")
    npairs = n * (n - 1) // 2
    want = (npairs + 5) // 6
    if len(body) != want:
        raise ValueError(f"expected {want} data bytes, got {len(body)}")
    adj = [0] * n
    chars = iter(body)
    val = nbits = 0
    for j in range(1, n):
        for i in range(j):
            if not nbits:
                val = ord(next(chars)) - 63
                if not 0 <= val < 64:
                    raise ValueError(f"data byte {val + 63} outside 63..126")
                nbits = 6
            nbits -= 1
            if val >> nbits & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, adj)


def bitwise_write_graph6(g: Graph) -> str:
    """Reference for ``write_graph6``: its earlier encoder, one vertex pair at
    a time, six bits to a byte and the last byte padded with zeros."""
    n = g.order
    if n > 62:
        out = ["~", chr(63 + (n >> 12)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    else:
        out = [chr(63 + n)]
    buf = nbits = 0
    for j in range(1, n):
        for i in range(j):
            buf = buf << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def perfbench_corpus_lines(seed: int) -> list[str]:
    """The graph6 lines of the benchmark's corpus-sweep input for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_lines(seed)


def random_graph6_lines(seed: int) -> list[str]:
    """For each order 1..128, a graph of seeded density, written by
    write_graph6, and a body of seeded bytes with its padding bits set."""
    rng = random.Random(seed)
    lines = []
    for n in range(1, 129):
        p = rng.random()
        pairs = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
        line = write_graph6(build_graph(n, pairs))
        head = line[:4] if n > 62 else line[:1]
        body = "".join(chr(rng.randrange(63, 127)) for _ in line[len(head):])
        lines += [line, head + body]
    return lines


def parse_outcome(parse, line: str):
    try:
        return parse(line)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestColumnwiseDecode:
    """parse_graph6 reads a column of the adjacency matrix at a time; it
    must decode and refuse every line exactly as the pair-at-a-time loop."""

    def test_every_graph_up_to_order_7(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                line = write_graph6(g)
                assert parse_graph6(line) == bitwise_parse_graph6(line) == g

    def test_perfbench_corpus(self):
        lines = perfbench_corpus_lines(7)
        assert len(lines) == 4000
        for line in lines:
            assert parse_graph6(line) == bitwise_parse_graph6(line)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_graphs_of_orders_1_to_128(self, seed):
        lines = random_graph6_lines(seed)
        assert any(line[0] == "~" for line in lines)  # the long form is covered
        assert "@" in lines  # n = 1 has an empty body
        for line in lines:
            assert_validated(parse_graph6(line))
            assert parse_graph6(line) == bitwise_parse_graph6(line)

    @pytest.mark.parametrize("line", [
        "Bw", "C~", "DQc", "G?B@`_", "IhC?GC@?G",
        write_graph6(random_stacked_triangulation(20, 3).graph),
        write_graph6(random_stacked_triangulation(70, 3).graph),
    ])
    def test_bad_byte_messages_match_the_reference(self, line):
        for at in range(len(line)):
            for bad in ("\x00", "!", "\x7f", "\xe9", "\u3000"):
                spoilt = line[:at] + bad + line[at + 1:]
                got = parse_outcome(parse_graph6, spoilt)
                assert isinstance(got, str)
                assert got == parse_outcome(bitwise_parse_graph6, spoilt)

    def test_first_bad_byte_is_named(self):
        with pytest.raises(ValueError, match="data byte 127 outside 63..126"):
            parse_graph6("G?\x7f?!?")


class TestColumnwiseEncode:
    """write_graph6 writes the column word parse_graph6 reads; it must write
    every graph exactly as the pair-at-a-time loop."""

    def test_every_graph_up_to_order_7(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert write_graph6(g) == bitwise_write_graph6(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_graphs_of_orders_1_to_128(self, seed):
        rng = random.Random(seed)
        for n in range(1, 129):
            p = rng.random()
            g = build_graph(n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p])
            assert write_graph6(g) == bitwise_write_graph6(g)

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 128])
    def test_empty_and_complete_graphs(self, n):
        # 62 and 63 end the short form and start the long one; a complete
        # graph sets every pair bit and none of the padding
        for g in (build_graph(n, []), build_graph(n, combinations(range(n), 2))):
            assert write_graph6(g) == bitwise_write_graph6(g)


class TestTrustedConstruction:

    def test_every_class_up_to_order_7(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert_validated(g)
                assert_validated(parse_graph6(write_graph6(g)))
                assert parse_graph6(write_graph6(g)) == g
                for u, v in g.edges():
                    assert_validated(delete_edge(g, u, v))
                for mask in range(1, 1 << n, 7):  # every seventh vertex set keeps this fast
                    assert_validated(induced_subgraph(g, mask))

    def test_pickle_and_copy_skip_the_checks(self, monkeypatch):
        graphs = [parse_graph6(write_graph6(g)) for n in range(1, 7) for g in enumerate_graphs(n)]
        graphs.append(random_stacked_triangulation(100, 3).graph)
        inits = []
        init = Graph.__init__

        def counting_init(self, order, adj):
            inits.append(order)
            init(self, order, adj)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        copies = [pickle.loads(pickle.dumps(graphs, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies.append(copy.deepcopy(graphs))
        assert inits == []
        for again in copies:
            assert again == graphs
            assert all(type(g) is Graph and type(g.adj) is tuple for g in again)

    def test_empty_induced_subgraph_rejected(self):
        with pytest.raises(ValueError, match=r"order 0 outside 1\.\.128"):
            induced_subgraph(k4(), 0)

    @pytest.mark.parametrize("order, adj, message", [
        (0, [], r"order 0 outside 1\.\.128"),
        (129, [0] * 129, r"order 129 outside 1\.\.128"),
        (3, [2, 1], "adjacency has 2 rows for order 3"),
        (2, [2, 5], "adjacency row 1 references vertices >= 2"),
        (2, [1, 0], "vertex 0 is adjacent to itself"),
        (3, [2, 0, 0], r"adjacency not symmetric at \(0, 1\)"),
    ])
    def test_public_constructor_still_checks(self, order, adj, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(order, adj)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = fixture("prism")
        assert parse_edge_list(write_edge_list(g)) == g

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="^empty edge-list input$"):
            parse_edge_list("")

    def test_non_integer_header_named(self):
        with pytest.raises(ValueError, match="^bad edge-list header '4 a'$"):
            parse_edge_list("4 a\n0 1\n")

    def test_non_integer_edge_line_named(self):
        with pytest.raises(ValueError, match="^bad edge line '1 x'$"):
            parse_edge_list("2 1\n1 x\n")

    @pytest.mark.parametrize("line", ["0 1_0", "0 +1", "+0 1", "0 --1", "0 -", "0 \u0661",
                                      "0\x1c1", "0\x1d1", "0\x1e1", "0\x1f1"])
    def test_only_digit_tokens_are_vertices(self, line):
        # int() reads '1_0' as 10, '+1' as 1 and Arabic-Indic digits, and str.split()
        # splits at 0x1c..0x1f; the format does neither
        with pytest.raises(ValueError, match=f"^bad edge line {re.escape(repr(line))}$"):
            parse_edge_list(f"11 1\n{line}\n")

    def test_only_digit_tokens_in_header(self):
        with pytest.raises(ValueError, match="^bad edge-list header '1_1 1'$"):
            parse_edge_list("1_1 1\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n1 0\n", r"^edge \(1, 0\) repeats edge \(0, 1\)$"),
        ("3 3\n0 1\n1 2\n1 2\n", r"^edge \(1, 2\) repeats edge \(1, 2\)$"),
    ])
    def test_repeated_edge_named(self, text, message):
        # build_graph collapses a repeated pair; a file that repeats one
        # under a header counting it twice is refused
        with pytest.raises(ValueError, match=message):
            parse_edge_list(text)

    def test_negative_vertex_keeps_its_range_message(self):
        with pytest.raises(ValueError, match=r"^edge \(0, -1\) outside order 3$"):
            parse_edge_list("3 1\n0 -1\n")


class TestInducedIsForest:
    def test_octahedron_four_cycle(self):
        # vertices 1,2,4,5 avoid both members of two antipodal pairs: induced C4
        g = fixture("octahedron")
        assert not induced_is_forest(g, vertex_set([1, 2, 4, 5]))

    def test_small_sets_are_forests(self):
        for g in (k4(), c4(), fixture("octahedron")):
            for s in list(masks_of_size(g.order, 1)) + list(masks_of_size(g.order, 2)):
                assert induced_is_forest(g, s)

    def test_triangle_in_k4(self):
        assert not induced_is_forest(k4(), vertex_set([0, 1, 2]))

    def test_empty_set(self):
        assert induced_is_forest(k4(), 0)


class TestIsVertexCut:
    def test_c4_opposite_pair(self):
        assert is_vertex_cut(c4(), vertex_set([0, 2]))

    def test_complete_graph_has_no_cut(self):
        g = k4()
        for size in range(1, 4):
            for s in masks_of_size(4, size):
                assert not is_vertex_cut(g, s)

    def test_octahedron_induced_cycle_separates_antipodes(self):
        g = fixture("octahedron")
        s = vertex_set([1, 2, 4, 5])
        assert is_vertex_cut(g, s)
        comps = components(g, g.vertex_mask & ~s)
        assert comps == [vertex_set([0]), vertex_set([3])]

    def test_full_set_is_not_a_cut(self):
        assert not is_vertex_cut(c4(), c4().vertex_mask)

    def test_disconnected_input_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="cut predicates require a connected graph"):
            is_vertex_cut(g, 1)


class TestVertexConnectivity:
    def test_k33(self):
        g = fixture("k33")
        assert vertex_connectivity_at_least(g, 3)
        assert not vertex_connectivity_at_least(g, 4)

    def test_path_middle_vertex(self):
        assert not vertex_connectivity_at_least(path(3), 2)

    def test_complete_graphs(self):
        assert vertex_connectivity_at_least(k4(), 3)

    @pytest.mark.parametrize("k, expected", [(-1, True), (0, True), (4, False), (5, False)])
    def test_k_outside_one_to_n_minus_one_answered(self, k, expected):
        # k <= 0 asks nothing; an order <= k is not k-connected
        assert vertex_connectivity_at_least(k4(), k) is expected

    def test_masks_larger_than_the_ground_set(self):
        assert list(masks_of_size(3, 4)) == []
        assert list(masks_of_size(3, 3)) == [0b111]

    def test_disconnected_graph_is_not_k_connected(self):
        two_k4 = build_graph(8, [(u + o, v + o) for o in (0, 4) for u, v in combinations(range(4), 2)])
        for g in (two_k4, build_graph(3, [(0, 1)])):
            assert not any(vertex_connectivity_at_least(g, k) for k in range(1, g.order))

    def test_monotone_in_k(self, random_connected_graph):
        for seed in range(8):
            g = random_connected_graph(7, seed)
            values = [vertex_connectivity_at_least(g, k) for k in range(1, 7)]
            assert values == sorted(values, reverse=True)

    def test_brute_force_agreement(self, random_connected_graph):
        # independent oracle: scan every subset of size < k for a cut
        for seed in range(12):
            g = random_connected_graph(7, seed)
            for k in range(1, 5):
                expected = True
                if g.size < g.order * (g.order - 1) // 2:
                    for size in range(1, k):
                        for comb in combinations(range(g.order), size):
                            s = vertex_set(comb)
                            rest = g.vertex_mask & ~s
                            if rest and len(components(g, rest)) >= 2:
                                expected = False
                assert vertex_connectivity_at_least(g, k) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_networkx_node_connectivity(self, n):
        # every graph of order n, connected or not, at every k from -1 to
        # n + 1, so the degree exit for k >= 2, the search behind it and the
        # answers outside 1..n-1 all meet the oracle
        nx = pytest.importorskip("networkx")
        ks = range(-1, n + 2)
        for g in enumerate_graphs(n):
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            kappa = nx.node_connectivity(h)
            values = [vertex_connectivity_at_least(g, k) for k in ks]
            assert values == [k <= 0 or (n > k and kappa >= k) for k in ks]


def partition_row_holds(g):
    """Whether g's profile point satisfies the deg4-partition row."""
    report = check_feasible(build_primal(max(g.order, 8)), profile_point(g))
    return next(r.satisfied for r in report.rows if r.row_id == "deg4-partition")


def split_counts(point):
    return [count for var, count in point.items() if var.startswith("n_4^") and "'" not in var]


class TestDegreeProfile:
    def test_octahedron_partition_invalid(self):
        g = fixture("octahedron")
        point = profile_point(g)
        assert point["n_4"] == 6
        assert all(v == 0 for v in split_counts(point))
        assert not partition_row_holds(g)

    def test_icosahedron_five_regular(self):
        g = fixture("icosahedron")
        point = profile_point(g)
        assert point["n_5"] == 12
        assert sum(point[f"n_{i}"] for i in range(4, 12)) == 12
        assert partition_row_holds(g)

    def test_conjecture2_family_degrees(self):
        g = conjecture2_family(1)
        degrees = sorted(g.degree(v) for v in range(g.order))
        assert degrees == [3, 3, 4, 4, 4, 4, 6]
        point = profile_point(g)
        assert set(point) == set(build_primal(8).variables)
        assert point["n_4"] == 4
        assert point["n_6"] == 1
        assert partition_row_holds(g)
        assert point["n_4^6"] == 4
        assert point["n_4^6'"] == 4 and point["n_4^6''"] == 0

    def test_profile_sums(self, random_connected_graph):
        for seed in range(10):
            g = random_connected_graph(9, seed)
            point = profile_point(g)
            high = sum(1 for v in range(g.order) if g.degree(v) >= 4)
            assert sum(point[f"n_{i}"] for i in range(4, 9)) == high
            topped = all(
                any(g.degree(u) >= 5 for u in g.neighbors(v))
                for v in range(g.order)
                if g.degree(v) == 4
            )
            assert partition_row_holds(g) == topped
            if topped:
                assert point["n_4"] == sum(split_counts(point))
