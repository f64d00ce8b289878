import re
from itertools import combinations

import pytest

from forestcut.graph import (
    build_graph,
    delete_edge,
    induced_is_forest,
    is_vertex_cut,
)
from forestcut.planar import (
    RotationSystem,
    _fan_path,
    face_containing_edge,
    faces,
    icosahedron_triangulation,
    is_plane_triangulation,
    k4_triangulation,
    octahedron_triangulation,
    parse_rotation_system,
    prop1_forest_cut,
    random_stacked_triangulation,
    reroot,
    stack_vertex,
    triangle_triangulation,
    write_rotation_system,
)


def c4_system():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return RotationSystem(g, ((1, 3), (2, 0), (3, 1), (0, 2)))


class TestFaces:
    def test_k4_has_four_triangles(self):
        fs = faces(k4_triangulation().embedding)
        assert len(fs) == 4
        assert all(len(f) == 3 for f in fs)
        assert sorted(frozenset(f) for f in fs) == sorted(
            frozenset(c) for c in combinations(range(4), 3)
        )

    def test_c4_cycle_embedding(self):
        fs = faces(c4_system())
        assert len(fs) == 2
        assert all(len(f) == 4 for f in fs)

    def test_transposed_rotation_breaks_euler(self):
        g = k4_triangulation().graph
        rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 1, 0))  # last row transposed
        with pytest.raises(ValueError, match=r"face trace gives n-m\+f = 0, expected 2"):
            faces(RotationSystem(g, rot))

    def test_rotation_must_match_neighbors(self):
        g = k4_triangulation().graph
        with pytest.raises(ValueError):
            RotationSystem(g, ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 0)))


class TestIsPlaneTriangulation:
    def test_octahedron(self):
        assert is_plane_triangulation(octahedron_triangulation().embedding)

    def test_icosahedron(self):
        tri = icosahedron_triangulation()
        assert tri.graph.order == 12 and tri.graph.size == 30
        assert is_plane_triangulation(tri.embedding)

    def test_c4_is_not(self):
        assert not is_plane_triangulation(c4_system())

    def test_k4(self):
        assert is_plane_triangulation(k4_triangulation().embedding)

    def test_triangle(self):
        assert is_plane_triangulation(triangle_triangulation().embedding)


class TestStackVertex:
    def test_single_stack_on_k4(self):
        t = stack_vertex(k4_triangulation(), (0, 3, 1))
        assert t.graph.order == 5 and t.graph.size == 9

    def test_not_a_face(self):
        t = stack_vertex(k4_triangulation(), (0, 3, 1))
        present = {frozenset(f) for f in faces(t.embedding)}
        missing = next(
            c for c in combinations(range(5), 3) if frozenset(c) not in present
        )
        with pytest.raises(ValueError, match=re.escape(f"{missing} is not a face of the embedding")) as exc:
            stack_vertex(t, missing)
        assert exc.traceback[-1].name == "stack_vertex"

    def test_euler_after_every_stack(self):
        t = k4_triangulation()
        for step in range(8):
            target = faces(t.embedding)[1 + step % 3]
            t = stack_vertex(t, target)
            assert is_plane_triangulation(t.embedding)
            assert t.graph.size == 3 * t.graph.order - 6

    def test_generator_determinism(self):
        a = random_stacked_triangulation(12, 3)
        b = random_stacked_triangulation(12, 3)
        assert a.embedding == b.embedding and a.outer_face == b.outer_face
        c = random_stacked_triangulation(12, 4)
        assert c.embedding != a.embedding

    def test_generator_sizes(self):
        for n in range(4, 13):
            t = random_stacked_triangulation(n, 11)
            assert t.graph.order == n
            assert t.graph.size == 3 * n - 6
            assert is_plane_triangulation(t.embedding)


class TestProp1ForestCut:
    def test_triangle_returns_apex(self):
        cut = prop1_forest_cut(triangle_triangulation(), (0, 1))
        assert cut == 1 << 2

    def test_k4_returns_apex_and_fan_vertex(self):
        cut = prop1_forest_cut(k4_triangulation(), (0, 1))
        assert cut == (1 << 2) | (1 << 3)

    def test_edge_must_lie_on_outer_face(self):
        t = octahedron_triangulation()
        u, v = next((u, v) for u, v in t.graph.edges() if {u, v} - set(t.outer_face))
        with pytest.raises(ValueError, match=r"is not on the outer face \(0, 1, 5\)"):
            prop1_forest_cut(t, (u, v))

    @pytest.mark.parametrize("fixture_maker", [octahedron_triangulation, icosahedron_triangulation])
    def test_fixture_edges_revalidate(self, fixture_maker):
        t = fixture_maker()
        g = t.graph
        for u, v in g.edges():
            tri = reroot(t, face_containing_edge(t.embedding, u, v))
            cut = prop1_forest_cut(tri, (u, v))
            without = delete_edge(g, u, v)
            assert is_vertex_cut(without, cut)
            assert induced_is_forest(without, cut)

    def test_stacked_edges_revalidate(self):
        # 20 seeded triangulations cycling through orders 4..12
        for i in range(20):
            t = random_stacked_triangulation(4 + (i % 9), 90 + i)
            g = t.graph
            for u, v in g.edges():
                tri = reroot(t, face_containing_edge(t.embedding, u, v))
                cut = prop1_forest_cut(tri, (u, v))
                without = delete_edge(g, u, v)
                assert is_vertex_cut(without, cut) and induced_is_forest(without, cut)

    def test_fan_path_is_shortest_increasing(self):
        # oracle: scan every increasing subsequence of fan positions
        for i in range(6):
            t = random_stacked_triangulation(6 + i, 17 + i)
            g = t.graph
            for u, v in g.edges():
                tri = reroot(t, face_containing_edge(t.embedding, u, v))
                z, seq, path = _fan_path(tri, (u, v))
                if seq is None:
                    continue
                last = len(seq) - 1
                best = None
                for size in range(1, last):
                    for mids in combinations(range(1, last), size):
                        nodes = [0, *mids, last]
                        if all(
                            g.has_edge(seq[a], seq[b])
                            for a, b in zip(nodes, nodes[1:])
                        ):
                            best = nodes
                            break
                    if best:
                        break
                assert best is not None
                assert len(path) == len(best)
                assert path == best  # lexicographically first among shortest


class TestNoForestCutInTriangulations:
    def test_fixtures_and_stacks(self):
        from forestcut.cuts import find_forest_cut_exhaustive

        assert find_forest_cut_exhaustive(octahedron_triangulation().graph) is None
        for i in range(5):
            t = random_stacked_triangulation(5 + i, 70 + i)
            assert find_forest_cut_exhaustive(t.graph) is None


class TestRotationFiles:
    def test_round_trip(self):
        t = octahedron_triangulation()
        text = write_rotation_system(t.embedding)
        again = parse_rotation_system(text)
        assert again == t.embedding

    def test_blank_lines_ignored(self):
        text = "3\n\n0: 1 2\n\n1: 2 0\n2: 0 1\n"
        system = parse_rotation_system(text)
        assert system.graph.size == 3

    def test_bad_vertex_count(self):
        with pytest.raises(ValueError):
            parse_rotation_system("2\n0: 1\n")


class TestReroot:
    def test_any_face_can_be_outer(self):
        t = k4_triangulation()
        for f in faces(t.embedding):
            moved = reroot(t, f)
            assert moved.outer_face == f

    def test_non_face_rejected(self):
        t = stack_vertex(k4_triangulation(), (0, 3, 1))
        present = {frozenset(f) for f in faces(t.embedding)}
        missing = next(
            c for c in combinations(range(5), 3) if frozenset(c) not in present
        )
        with pytest.raises(ValueError, match=re.escape(f"{missing} is not a face of the embedding")) as exc:
            reroot(t, missing)
        assert exc.traceback[-1].name == "__post_init__"
