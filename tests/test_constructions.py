from fractions import Fraction

import pytest

from forestcut.constructions import (
    FIXTURE_NAMES,
    GlueSpec,
    clique_glue,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from forestcut.cuts import find_forest_cut_exhaustive, find_independent_cut
from forestcut.graph import (
    induced_is_forest,
    vertex_connectivity_at_least,
)
from forestcut.verify import canonical_graph6


class TestCycleDiagonalsUniversal:
    def test_k3_sizes(self):
        g = cycle_diagonals_universal(3)
        assert g.order == 7 and g.size == 15
        assert Fraction(g.size) == Fraction(5, 2) * (g.order - 1)

    def test_last_vertex_is_universal(self):
        g = cycle_diagonals_universal(4)
        assert g.adj[8] == g.vertex_mask ^ (1 << 8)

    def test_k3_without_universal_is_k33(self):
        g = cycle_diagonals_universal(3)
        from forestcut.graph import induced_subgraph

        inner = induced_subgraph(g, g.vertex_mask ^ (1 << 6))
        assert canonical_graph6(inner) == canonical_graph6(fixture("k33"))

    def test_k2_is_complete(self):
        g = cycle_diagonals_universal(2)
        assert g.size == g.order * (g.order - 1) // 2

    def test_four_connected(self):
        assert vertex_connectivity_at_least(cycle_diagonals_universal(3), 4)

    def test_too_small(self):
        with pytest.raises(ValueError, match="needs k >= 2"):
            cycle_diagonals_universal(1)


class TestK3BandCycle:
    def test_sizes(self):
        g = k3_band_cycle(8, 4)
        assert g.order == 8 and g.size == 19

    def test_boundary_parameters(self):
        g = k3_band_cycle(7, 3)
        assert g.order == 7 and g.size == 15
        with pytest.raises(ValueError, match="need n > 6 and 3 <= c < n-3, got n=7, c=4"):
            k3_band_cycle(7, 4)
        with pytest.raises(ValueError, match="need n > 6 and 3 <= c < n-3, got n=6, c=3"):
            k3_band_cycle(6, 3)
        with pytest.raises(ValueError, match="need n > 6 and 3 <= c < n-3, got n=8, c=2"):
            k3_band_cycle(8, 2)

    def test_three_connected(self):
        assert vertex_connectivity_at_least(k3_band_cycle(8, 4), 3)

    def test_small_side_is_independent(self):
        g = k3_band_cycle(9, 4)
        assert induced_is_forest(g, 0b111)


class TestConjecture2Family:
    def test_sizes_k1(self):
        g = conjecture2_family(1)
        assert g.order == 7 and g.size == 14
        assert Fraction(g.size) == Fraction(7, 3) * (g.order - 1)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_contract(self, k):
        g = conjecture2_family(k)
        assert g.order == 3 * k + 4
        assert g.size == 7 * k + 7
        assert vertex_connectivity_at_least(g, 3)
        assert all(not induced_is_forest(g, g.adj[v]) for v in range(g.order))

    def test_too_small(self):
        with pytest.raises(ValueError, match="needs k >= 1"):
            conjecture2_family(0)


class TestCliqueGlue:
    def test_octahedra_on_triangle(self):
        g = clique_glue(fixture("octahedron"), fixture("octahedron"), GlueSpec((0, 1, 2), (0, 1, 2)))
        assert g.order == 9 and g.size == 21 == 3 * g.order - 6

    def test_k4s_on_triangle(self):
        g = clique_glue(fixture("k4"), fixture("k4"), GlueSpec((0, 1, 2), (1, 2, 3)))
        assert g.order == 5 and g.size == 9

    def test_non_clique_rejected(self):
        octa = fixture("octahedron")
        with pytest.raises(ValueError, match="clique_a: 0 and 3 are not adjacent"):
            clique_glue(octa, octa, GlueSpec((0, 3), (0, 1)))

    @pytest.mark.parametrize("clique, vertex", [((0, 1, -1), -1), ((0, 1, 9), 9), ((9, 0, 1), 9)])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_vertex_outside_graph_named(self, side, clique, vertex):
        # the range is checked for every vertex before any adjacency test reads one
        octa = fixture("octahedron")
        spec = GlueSpec(clique, (0, 1, 2)) if side == "a" else GlueSpec((0, 1, 2), clique)
        with pytest.raises(ValueError, match=f"^clique_{side}: vertex {vertex} outside graph$"):
            clique_glue(octa, octa, spec)

    def test_bad_spec_shapes(self):
        with pytest.raises(ValueError, match="clique tuples must have equal length"):
            GlueSpec((0, 1), (0, 1, 2))
        with pytest.raises(ValueError, match="gluing is along K2, K3, or K4 only"):
            GlueSpec((0,), (1,))
        with pytest.raises(ValueError, match="clique tuples must not repeat vertices"):
            GlueSpec((0, 0), (1, 2))

    def test_gluing_preserves_missing_forest_cut(self):
        # triangulation-like operands with no forest cut keep none after gluing
        octa = fixture("octahedron")
        spec3 = GlueSpec((0, 1, 2), (0, 1, 2))
        pair = clique_glue(octa, octa, spec3)
        assert find_forest_cut_exhaustive(pair) is None
        triple = clique_glue(pair, octa, GlueSpec((3, 4, 5), (0, 1, 2)))
        assert triple.order == 12 and triple.size == 3 * 12 - 6
        assert find_forest_cut_exhaustive(triple) is None

    def test_gluing_on_k4(self):
        from forestcut.planar import random_stacked_triangulation

        t5 = random_stacked_triangulation(5, 1).graph
        g = clique_glue(t5, t5, GlueSpec((0, 1, 2, 3), (0, 1, 2, 3)))
        assert g.order == 6 and g.size == 12 == 3 * g.order - 6
        assert find_forest_cut_exhaustive(g) is None


class TestFixtures:
    def test_names(self):
        assert set(FIXTURE_NAMES) == {
            "k4", "k33", "prism", "octahedron", "icosahedron", "wheel5",
            "fig1_a", "fig1_b", "fig1_c", "fig1_d",
        }

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown fixture 'petersen'"):
            fixture("petersen")

    def test_fig1_a_is_k33(self):
        g = fixture("fig1_a")
        assert g.size == 9
        assert all(g.degree(v) == 3 for v in range(6))
        assert canonical_graph6(g) == canonical_graph6(fixture("k33"))

    def test_fig1_b_is_prism(self):
        assert canonical_graph6(fixture("fig1_b")) == canonical_graph6(fixture("prism"))

    def test_fig1_c_sizes(self):
        g = fixture("fig1_c")
        assert g.order == 7 and g.size == 11

    def test_fig1_d_sizes(self):
        g = fixture("fig1_d")
        assert g.order == 7 and g.size == 11
        assert canonical_graph6(g) != canonical_graph6(fixture("fig1_c"))

    def test_prism_has_no_independent_cut(self):
        g = fixture("prism")
        assert g.size == 2 * g.order - 3
        assert find_independent_cut(g) is None

    def test_octahedron_is_antipodal(self):
        g = fixture("octahedron")
        assert g.size == 12
        assert all(not g.has_edge(v, v + 3) for v in range(3))

    def test_wheel5(self):
        g = fixture("wheel5")
        assert g.order == 5 and g.size == 8
        assert g.degree(4) == 4
