from itertools import combinations

import pytest

from forestcut.constructions import conjecture2_family, fixture
from forestcut.graph import (
    build_graph,
    components,
    degree_profile,
    degree_sum,
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

    def test_order_above_62_rejected(self):
        with pytest.raises(ValueError, match="graph6 short form caps at 62 vertices, got 63"):
            write_graph6(build_graph(63, []))
        with pytest.raises(ValueError, match="long-form graph6"):
            parse_graph6("~??")

    def test_round_trip_random(self, random_connected_graph):
        for seed in range(25):
            g = random_connected_graph(4 + seed % 9, seed)
            assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_fixtures(self):
        for name in ("k4", "k33", "prism", "octahedron", "icosahedron", "wheel5"):
            g = fixture(name)
            assert parse_graph6(write_graph6(g)) == g


class TestEdgeListFormat:
    def test_round_trip(self):
        g = fixture("prism")
        assert parse_edge_list(write_edge_list(g)) == g

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n")


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


class TestDegreeProfile:
    def test_octahedron_partition_invalid(self):
        profile = degree_profile(fixture("octahedron"))
        assert profile.count_degree(4) == 6
        assert all(v == 0 for v in profile.n_4_j.values())
        assert not profile.partition_valid

    def test_icosahedron_five_regular(self):
        profile = degree_profile(fixture("icosahedron"))
        assert profile.count_degree(5) == 12
        assert sum(profile.n_i.values()) == 12
        assert profile.partition_valid

    def test_conjecture2_family_degrees(self):
        g = conjecture2_family(1)
        degrees = sorted(g.degree(v) for v in range(g.order))
        assert degrees == [3, 3, 4, 4, 4, 4, 6]
        profile = degree_profile(g)
        assert profile.count_degree(4) == 4
        assert profile.count_degree(6) == 1
        assert profile.partition_valid
        assert profile.n_4_j[6] == 4
        assert profile.n_4_6_prime == 4 and profile.n_4_6_doubleprime == 0

    def test_profile_sums(self, random_connected_graph):
        for seed in range(10):
            g = random_connected_graph(9, seed)
            profile = degree_profile(g)
            high = sum(1 for v in range(g.order) if g.degree(v) >= 4)
            assert sum(profile.n_i.values()) == high
            if profile.partition_valid:
                assert profile.count_degree(4) == sum(profile.n_4_j.values())

    def test_degree_sum_helper(self):
        g = fixture("octahedron")
        assert degree_sum(g, g.adj[0]) == 16
        assert degree_sum(g, g.vertex_mask) == 2 * g.size
