import random
import re
from itertools import combinations

import pytest

from forestcut import planar
from forestcut.graph import (
    build_graph,
    delete_edge,
    induced_is_forest,
    is_vertex_cut,
    vertex_set,
    write_graph6,
)
from forestcut.planar import (
    PlaneTriangulation,
    RotationSystem,
    _fan_path,
    face_containing_edge,
    icosahedron_triangulation,
    k4_triangulation,
    octahedron_triangulation,
    parse_rotation_system,
    prop1_forest_cut,
    random_stacked_triangulation,
    reroot,
    stack_vertex,
    write_rotation_system,
)


TRIANGLE = PlaneTriangulation(RotationSystem(((1, 2), (2, 0), (0, 1))), (0, 1, 2))


def faces(system):
    """All faces as vertex cycles, each rotated to its least rotation."""
    cycles = [[d[0] for d in f] for f in system._faces]
    return [min(tuple(c[i:] + c[:i]) for i in range(len(c))) for c in cycles]


def is_plane_triangulation(system):
    return all(len(f) == 3 for f in faces(system))


def c4_system():
    return RotationSystem(((1, 3), (2, 0), (3, 1), (0, 2)))


def toroidal_k7_beside_k4():
    """K7 on the torus (14 triangles) beside a plane K4 (4 triangles): n = 11,
    m = 27 = 3n - 6, every face a triangle and n - m + f = 2, yet the graph is
    disconnected, so this is no sphere embedding."""
    k7 = [tuple((i + s) % 7 for s in (1, 3, 2, 6, 4, 5)) for i in range(7)]
    k4 = [tuple(7 + u for u in row) for row in k4_triangulation().embedding.rot]
    return tuple(k7 + k4)


TRIANGLE_AND_ISOLATED_VERTEX = ((1, 2), (2, 0), (0, 1), ())


def count_rule_accepts(system):
    """Whether ``PlaneTriangulation`` takes the system, rooted at its first face."""
    try:
        PlaneTriangulation(system, tuple(d[0] for d in system._faces[0]))
    except ValueError as exc:
        assert str(exc) == "embedding has a non-triangular face"
        return False
    return True


@pytest.fixture(autouse=True)
def count_rule_matches_face_scan(monkeypatch):
    """After each test, every rotation system it built: the edge count
    ``PlaneTriangulation`` decides by agrees with the per-face reference."""
    built = []
    post_init = RotationSystem.__post_init__

    def recorded(system):
        post_init(system)
        built.append(system)

    monkeypatch.setattr(RotationSystem, "__post_init__", recorded)
    yield
    for system in built:
        assert count_rule_accepts(system) == is_plane_triangulation(system)


def inside_by_face_walk(tri, xy, q_verts):
    """Reference for Prop. 1's inside test: walk face adjacency.

    Start at the outer face, never cross an edge of the cycle Q + xy, and
    return the vertices that lie on no face reached.
    """
    face_list = faces(tri.embedding)
    darts = [tuple(zip(f, f[1:] + f[:1])) for f in face_list]
    by_dart = {d: idx for idx, f in enumerate(darts) for d in f}
    cycle_edges = {frozenset(p) for p in zip(q_verts, q_verts[1:])} | {frozenset(xy)}
    start = next(i for i, f in enumerate(face_list) if set(f) == set(tri.outer_face))
    reached = {start}
    stack = [start]
    while stack:
        for u, v in darts[stack.pop()]:
            if frozenset((u, v)) in cycle_edges:
                continue
            other = by_dart[(v, u)]
            if other not in reached:
                reached.add(other)
                stack.append(other)
    seen = set().union(*(face_list[i] for i in reached))
    return set(range(tri.graph.order)) - seen


def is_stacked(g):
    """Stacked triangulations peel down to K4 by deleting degree-3 vertices."""
    adj = {v: {u for u in range(g.order) if g.has_edge(u, v)} for v in range(g.order)}
    while len(adj) > 4:
        v = next((v for v, nb in adj.items() if len(nb) == 3), None)
        if v is None:
            return False
        for u in adj.pop(v):
            adj[u].discard(v)
    return True


def stacked_by_stack_vertex(n, seed):
    """The stacked generator written as one ``stack_vertex`` call per vertex:
    pick a seeded face of the traced list, the outer face left out."""
    tri = k4_triangulation()
    rng = random.Random(seed)
    while tri.graph.order < n:
        candidates = [f for f in faces(tri.embedding) if set(f) != set(tri.outer_face)]
        tri = stack_vertex(tri, candidates[rng.randrange(len(candidates))])
    return tri


def networkx_triangulation(nx, n, seed):
    """A maximal planar graph from shuffled edges, with networkx's rotation."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    for u, v in pairs:
        if h.number_of_edges() == 3 * n - 6:
            break
        h.add_edge(u, v)
        if not nx.check_planarity(h)[0]:
            h.remove_edge(u, v)
    _, emb = nx.check_planarity(h)
    rot = tuple(tuple(emb.neighbors_cw_order(v)) for v in range(n))
    system = RotationSystem(rot)
    assert system.graph == build_graph(n, h.edges())
    return system


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

    def test_named_graphs_are_pinned(self):
        # labelled graph6, so a relabeling of a named triangulation shows
        assert write_graph6(TRIANGLE.graph) == "Bw"
        assert write_graph6(k4_triangulation().graph) == "C~"

    def test_transposed_rotation_breaks_euler(self):
        rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 1, 0))  # last row transposed
        with pytest.raises(ValueError, match=r"face trace gives n-m\+f = 0, expected 2"):
            faces(RotationSystem(rot))

    def test_rotation_must_match_neighbors(self):
        # the rows are symmetric, so Graph accepts them and the repeat is named
        with pytest.raises(ValueError, match="^rotation at 3 is not a permutation of its neighbors$"):
            RotationSystem(((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1, 1)))

    @pytest.mark.parametrize("vertex", [-1, 2])
    def test_vertex_out_of_range_names_its_row(self, vertex):
        with pytest.raises(ValueError, match=f"^rotation at 1 names vertex {vertex} outside 0..1$"):
            RotationSystem(((1,), (0, vertex)))


class TestSphereEmbedding:
    @pytest.mark.parametrize("rot", [toroidal_k7_beside_k4(), TRIANGLE_AND_ISOLATED_VERTEX],
                             ids=["toroidal-k7-beside-k4", "triangle-and-isolated-vertex"])
    def test_disconnected_graph_refused(self, rot):
        with pytest.raises(ValueError, match="^rotation system of a disconnected graph$"):
            RotationSystem(rot)

    def test_toroidal_k7_alone_breaks_euler(self):
        with pytest.raises(ValueError, match=r"^face trace gives n-m\+f = 0, expected 2$"):
            RotationSystem(toroidal_k7_beside_k4()[:7])

    def test_count_rule_on_every_connected_planar_graph_of_order_3_to_7(self):
        nx = pytest.importorskip("networkx")
        graphs = 0
        accepted = dict.fromkeys(range(3, 8), 0)
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n < 3 or not nx.is_connected(h):
                continue
            is_planar, emb = nx.check_planarity(h)
            if not is_planar:
                continue
            system = RotationSystem(tuple(tuple(emb.neighbors_cw_order(v)) for v in range(n)))
            graphs += 1
            accepted[n] += count_rule_accepts(system)
            assert count_rule_accepts(system) == is_plane_triangulation(system)
        # connected planar graphs (OEIS A003094) and maximal planar ones (A000109)
        assert graphs == 2 + 6 + 20 + 99 + 646
        assert accepted == {3: 1, 4: 1, 5: 1, 6: 2, 7: 5}


class TestIsPlaneTriangulation:
    def test_octahedron(self):
        assert is_plane_triangulation(octahedron_triangulation().embedding)

    def test_icosahedron(self):
        tri = icosahedron_triangulation()
        assert tri.graph.order == 12 and tri.graph.size == 30
        assert is_plane_triangulation(tri.embedding)

    def test_c4_is_not(self):
        assert not is_plane_triangulation(c4_system())

    def test_outer_face_must_be_a_face(self):
        embedding = octahedron_triangulation().embedding
        with pytest.raises(ValueError, match=re.escape("(0, 1, 3) is not a face of the embedding")):
            PlaneTriangulation(embedding, (0, 1, 3))

    def test_k4(self):
        assert is_plane_triangulation(k4_triangulation().embedding)

    def test_triangle(self):
        assert is_plane_triangulation(TRIANGLE.embedding)


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

    def test_pinned_outer_faces(self):
        # perfbench deletes tri.outer_face[:2], so the face order is pinned
        t = random_stacked_triangulation(9, 7)
        assert t.outer_face == (0, 1, 2)
        assert stack_vertex(t, (2, 1, 0)).outer_face == (0, 1, 9)
        assert stack_vertex(t, (0, 3, 8)).outer_face == (0, 1, 2)
        assert stack_vertex(k4_triangulation(), (1, 2, 0)).outer_face == (0, 1, 4)
        assert icosahedron_triangulation().outer_face == (0, 2, 9)

    def test_faces_traced_once_per_triangulation(self, monkeypatch):
        calls = []
        trace = planar._face_darts

        def counted(system):
            calls.append(system)
            return trace(system)

        monkeypatch.setattr(planar, "_face_darts", counted)
        t = random_stacked_triangulation(100, 3)
        assert len(calls) <= 2  # K4 and the final build
        traced = len(calls)
        prop1_forest_cut(t, t.outer_face[:2])
        edges = list(t.graph.edges())
        for u, v in edges[::len(edges) // 4][:4]:
            rooted = reroot(t, face_containing_edge(t.embedding, u, v))
            prop1_forest_cut(rooted, (u, v))
        assert len(calls) == traced  # the edge picks reuse the generator's trace
        stack_vertex(t, faces(t.embedding)[5])
        assert len(calls) == traced + 1  # only the new triangulation traces

    @pytest.mark.parametrize("n", [*range(4, 41), 60, 100, 128])
    def test_generator_matches_stack_vertex_loop(self, n):
        for seed in range(3):
            want = stacked_by_stack_vertex(n, seed)
            got = random_stacked_triangulation(n, seed)
            assert got.embedding.rot == want.embedding.rot
            assert got.outer_face == want.outer_face
            assert got.embedding._faces == want.embedding._faces

    @pytest.mark.parametrize("n, message", [
        (3, "stacked triangulations start at order 4"),
        (129, "stacked triangulations stop at order 128, got 129"),
        (10**9, "stacked triangulations stop at order 128, got 1000000000"),
    ])
    def test_generator_order_bounds(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_stacked_triangulation(n, 0)

    def test_generator_sizes(self):
        for n in range(4, 13):
            t = random_stacked_triangulation(n, 11)
            assert t.graph.order == n
            assert t.graph.size == 3 * n - 6
            assert is_plane_triangulation(t.embedding)


class TestProp1ForestCut:
    def test_triangle_returns_apex(self):
        cut = prop1_forest_cut(TRIANGLE, (0, 1))
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
                shortest = []
                for size in range(1, last):
                    shortest = [
                        nodes
                        for mids in combinations(range(1, last), size)
                        for nodes in [[0, *mids, last]]
                        if all(g.has_edge(seq[a], seq[b]) for a, b in zip(nodes, nodes[1:]))
                    ]
                    if shortest:
                        break
                assert shortest == [path]  # the one shortest increasing path


class TestProp1NetworkxOracle:
    def test_non_stacked_triangulations(self):
        nx = pytest.importorskip("networkx")
        graphs = cases = 0
        for seed in range(30):
            system = networkx_triangulation(nx, 8 + seed % 9, seed)
            g = system.graph
            assert g.size == 3 * g.order - 6
            if is_stacked(g):
                continue
            graphs += 1
            for face in faces(system):
                tri = PlaneTriangulation(system, face)
                for x, y in zip(face, face[1:] + face[:1]):
                    cases += 1
                    for xy in ((x, y), (y, x)):
                        cut = prop1_forest_cut(tri, xy)
                        without = delete_edge(g, x, y)
                        assert is_vertex_cut(without, cut) and induced_is_forest(without, cut)
                        z, seq, path = _fan_path(tri, xy)
                        q_verts = [seq[p] for p in path]
                        if inside_by_face_walk(tri, xy, q_verts):
                            assert cut == vertex_set(q_verts)
                        else:
                            assert cut == 1 << z | 1 << q_verts[1]
        assert (graphs, cases) == (20, 1272)


def backward_fan_path(tri, xy):
    """Reference for ``_fan_path``: its earlier backward pass over a step
    table holding, for each fan position, its fewest hops to y and the lowest
    next position that achieves them; the path follows the table from x."""
    x, y = xy
    z = next(v for v in tri.outer_face if v not in (x, y))
    rot_z = tri.embedding.rot[z]
    if len(rot_z) == 2:
        return z, None, None
    at = rot_z.index(x)
    spun = rot_z[at:] + rot_z[:at]
    seq = [x, *(spun[1:-1] if spun[-1] == y else spun[:1:-1]), y]
    last = len(seq) - 1
    adj = tri.graph.adj
    step = [(0, last)] * (last + 1)
    for i in range(last - 1, -1, -1):
        row = adj[seq[i]]
        nexts = range(i + 1, last + 1 if i else last)  # x skips the jump to y
        step[i] = min((step[j][0] + 1, j) for j in nexts if row >> seq[j] & 1)
    path = [0]
    while path[-1] != last:
        path.append(step[path[-1]][1])
    return z, seq, path


def assert_fan_paths_match_backward_pass(system):
    """Compare on every face, edge and orientation; return the count."""
    count = 0
    for face in faces(system):
        tri = PlaneTriangulation(system, face)
        for x, y in zip(face, face[1:] + face[:1]):
            for xy in ((x, y), (y, x)):
                assert _fan_path(tri, xy) == backward_fan_path(tri, xy)
                count += 1
    return count


class TestFanPathMatchesBackwardPass:
    def test_stacked_triangulations(self):
        counts = [
            assert_fan_paths_match_backward_pass(random_stacked_triangulation(n, 500 + n).embedding)
            for n in range(4, 41)
        ]
        # 2n - 4 faces, 3 edges each, 2 orientations: 8,880 fan paths
        assert counts == [12 * n - 24 for n in range(4, 41)]

    def test_networkx_triangulations(self):
        nx = pytest.importorskip("networkx")
        orders = range(8, 24)
        counts = [
            assert_fan_paths_match_backward_pass(networkx_triangulation(nx, n, 600 + n))
            for n in orders
        ]
        assert counts == [12 * n - 24 for n in orders]  # 2,592 fan paths


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

    @pytest.mark.parametrize("line", ["x: 0", "0: 1 y"])
    def test_non_integer_rotation_line_named(self, line):
        with pytest.raises(ValueError, match=f"^bad rotation line {re.escape(repr(line))}$"):
            parse_rotation_system(f"2\n{line}\n1: 0\n")

    @pytest.mark.parametrize("line", ["0: 0_1", "0: +1", "+0: 1", "0: 1 -", "0: --1", "0: 1\x1f"])
    def test_only_digit_tokens_are_vertices(self, line):
        # int() reads '0_1' as 1 and '+1' as 1, and str.split() splits at 0x1f;
        # the format does neither
        with pytest.raises(ValueError, match=f"^bad rotation line {re.escape(repr(line))}$"):
            parse_rotation_system(f"2\n{line}\n1: 0\n")

    @pytest.mark.parametrize("line, vertex", [("0: 1 -1", -1), ("0: 1 2", 2), ("-1: 0", -1)])
    def test_vertex_out_of_range_named(self, line, vertex):
        # the parser names a listed vertex out of range, RotationSystem a row entry
        where = "" if line.startswith(f"{vertex}:") else "rotation at 0 names "
        with pytest.raises(ValueError, match=f"^{where}vertex {vertex} outside 0..1$"):
            parse_rotation_system(f"2\n{line}\n1: 0\n")

    @pytest.mark.parametrize("header", ["x", "2.5", "3 4", "-2", "\u0664"])
    def test_bad_header_named(self, header):
        with pytest.raises(ValueError, match=f"^bad rotation header {re.escape(repr(header))}$"):
            parse_rotation_system(f"{header}\n0: 1\n1: 0\n")

    def test_vertex_listed_twice(self):
        text = "4\n0: 1 2\n1: 2 0\n2: 0 1\n2: 1 0\n"
        with pytest.raises(ValueError, match="^vertex 2 listed twice$"):
            parse_rotation_system(text)
        lines = write_rotation_system(random_stacked_triangulation(9, 7).embedding).splitlines()
        lines[4] = lines[1]  # vertex 0 replaces vertex 3
        with pytest.raises(ValueError, match="^vertex 0 listed twice$"):
            parse_rotation_system("\n".join(lines))


class TestReroot:
    def test_any_face_can_be_outer(self):
        t = k4_triangulation()
        for f in faces(t.embedding):
            moved = reroot(t, f)
            assert moved.outer_face == f

    def test_non_face_rejected(self, monkeypatch):
        k4 = k4_triangulation()
        t = stack_vertex(k4, (0, 3, 1))
        present = {frozenset(f) for f in faces(t.embedding)}
        missing = next(
            c for c in combinations(range(5), 3) if frozenset(c) not in present
        )
        # the embedding was traced when built; reroot only matches the face
        monkeypatch.setattr(planar, "_face_darts",
                            lambda system: pytest.fail("reroot traced the embedding again"))
        with pytest.raises(ValueError, match=re.escape("(0, 1) is not a face of the embedding")):
            reroot(k4, (0, 1))
        with pytest.raises(ValueError, match=re.escape(f"{missing} is not a face of the embedding")):
            reroot(t, missing)

    def test_checks_only_the_new_face(self, monkeypatch):
        t = random_stacked_triangulation(30, 4)
        expected = [PlaneTriangulation(t.embedding, f) for f in faces(t.embedding)]
        monkeypatch.setattr(planar, "_face_darts",
                            lambda system: pytest.fail("reroot traced the embedding again"))
        assert [reroot(t, f) for f in faces(t.embedding)] == expected
