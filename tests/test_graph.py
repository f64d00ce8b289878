import copy
import pickle
from itertools import combinations

import pytest

from conftest import assert_validated, components
from forestcut.constructions import conjecture2_family, fixture
from forestcut.graph import (
    Graph,
    build_graph,
    degree_sum,
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

    def test_non_integer_header_named(self):
        with pytest.raises(ValueError, match="^bad edge-list header '4 a'$"):
            parse_edge_list("4 a\n0 1\n")

    def test_non_integer_edge_line_named(self):
        with pytest.raises(ValueError, match="^bad edge line '1 x'$"):
            parse_edge_list("2 1\n1 x\n")


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


def partition_row_holds(g):
    """Whether g's profile point satisfies the deg4-partition row."""
    report = check_feasible(build_primal(max(g.order, 8)), profile_point(g))
    return report.row("deg4-partition").satisfied


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

    def test_degree_sum_helper(self):
        g = fixture("octahedron")
        assert degree_sum(g, g.adj[0]) == 16
        assert degree_sum(g, g.vertex_mask) == 2 * g.size
