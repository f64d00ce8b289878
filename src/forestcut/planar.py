"""Plane triangulations via rotation systems and the constructive forest cut.

A rotation system stores, for every vertex, the cyclic order of its
neighbors in a sphere embedding.  Faces are traced combinatorially: the
dart following (u, v) is (v, w) where w succeeds u in the rotation at v.
No coordinates and no planarity testing are involved anywhere; embeddings
are either generator outputs or parsed rotation files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import Graph, add_vertex, build_graph, vertex_set

Dart = tuple[int, int]
FaceDarts = tuple[Dart, ...]


@dataclass(frozen=True)
class RotationSystem:
    """A graph together with a cyclic neighbor order at every vertex."""

    graph: Graph
    rot: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.graph
        if len(self.rot) != g.order:
            raise ValueError("rotation table must have one row per vertex")
        for v, row in enumerate(self.rot):
            if vertex_set(row) != g.adj[v] or len(row) != g.degree(v):
                raise ValueError(f"rotation at {v} is not a permutation of its neighbors")


def _face_darts(system: RotationSystem) -> list[FaceDarts]:
    """Trace all faces as directed dart cycles; checks Euler's formula."""
    rot = system.rot
    succ = {}
    for v, row in enumerate(rot):
        d = len(row)
        for i, u in enumerate(row):
            succ[(v, u)] = (v, row[(i + 1) % d])
    seen: set[Dart] = set()
    out: list[FaceDarts] = []
    for u in range(system.graph.order):
        for v in rot[u]:
            if (u, v) in seen:
                continue
            cycle = []
            cur = (u, v)
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur)
                cur = succ[(cur[1], cur[0])]
            out.append(tuple(cycle))
    n = system.graph.order
    m = system.graph.size
    if n - m + len(out) != 2:
        raise ValueError(
            f"face trace gives n-m+f = {n - m + len(out)}, expected 2"
        )
    return out


def _min_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    best = None
    k = len(seq)
    for i in range(k):
        cand = tuple(seq[i:]) + tuple(seq[:i])
        if best is None or cand < best:
            best = cand
    return best


def faces(system: RotationSystem) -> list[tuple[int, ...]]:
    """All faces as vertex cycles, each rotated to start at its minimum."""
    return [_min_rotation([d[0] for d in f]) for f in _face_darts(system)]


def is_plane_triangulation(system: RotationSystem) -> bool:
    return all(len(f) == 3 for f in _face_darts(system))


@dataclass(frozen=True)
class PlaneTriangulation:
    """A rotation system all of whose faces are triangles, plus an outer face."""

    embedding: RotationSystem
    outer_face: tuple[int, int, int]

    def __post_init__(self):
        face_list = _face_darts(self.embedding)
        if any(len(f) != 3 for f in face_list):
            raise ValueError("embedding has a non-triangular face")
        if _match_face(face_list, self.outer_face) is None:
            raise ValueError(f"{self.outer_face} is not a face of the embedding")

    @property
    def graph(self) -> Graph:
        return self.embedding.graph


def _match_face(face_list: Iterable[FaceDarts], triple: Sequence[int]) -> Optional[FaceDarts]:
    """Find the traced face matching a vertex triple, either orientation."""
    if len(triple) != 3:
        return None
    want = {_min_rotation(triple), _min_rotation(tuple(reversed(triple)))}
    for f in face_list:
        if _min_rotation([d[0] for d in f]) in want:
            return f
    return None


def reroot(tri: PlaneTriangulation, face: Sequence[int]) -> PlaneTriangulation:
    """Re-designate the outer face; on the sphere any face qualifies."""
    return PlaneTriangulation(tri.embedding, tuple(face))


def face_containing_edge(system: RotationSystem, u: int, v: int) -> tuple[int, ...]:
    """The first traced face bounded by the edge uv, as a vertex tuple."""
    for f in _face_darts(system):
        if (u, v) in f or (v, u) in f:
            return tuple(d[0] for d in f)
    raise ValueError(f"({u}, {v}) does not bound a face")


def stack_vertex(tri: PlaneTriangulation, face: Sequence[int]) -> PlaneTriangulation:
    """Insert a new vertex into a face, joined to the three corners.

    Rotations change only locally: the new vertex slips into each corner
    rotation right after the face predecessor, and its own rotation is the
    face cycle reversed.
    """
    system = tri.embedding
    face_list = _face_darts(system)
    target = _match_face(face_list, tuple(face))
    if target is None:
        raise ValueError(f"{tuple(face)} is not a face of the embedding")
    g = system.graph
    w = g.order
    corners = [d[0] for d in target]
    new_rot = [list(r) for r in system.rot]
    for u, v in target:
        at = new_rot[v].index(u)
        new_rot[v].insert(at + 1, w)
    new_rot.append(list(reversed(corners)))
    new_graph = add_vertex(g, vertex_set(corners))
    outer = tri.outer_face
    if _min_rotation(corners) in {_min_rotation(outer), _min_rotation(tuple(reversed(outer)))}:
        outer = (target[0][0], target[0][1], w)
    return PlaneTriangulation(
        RotationSystem(new_graph, tuple(tuple(r) for r in new_rot)), outer
    )


def k4_triangulation() -> PlaneTriangulation:
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
    return PlaneTriangulation(RotationSystem(g, rot), (0, 1, 2))


def triangle_triangulation() -> PlaneTriangulation:
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return PlaneTriangulation(RotationSystem(g, ((1, 2), (2, 0), (0, 1))), (0, 1, 2))


def octahedron_triangulation() -> PlaneTriangulation:
    g = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3])
    rot = ((1, 2, 4, 5), (0, 5, 3, 2), (0, 1, 3, 4), (1, 5, 4, 2), (0, 2, 3, 5), (0, 4, 3, 1))
    return PlaneTriangulation(RotationSystem(g, rot), (0, 1, 5))


_ICOSAHEDRON_ROT = (
    (2, 8, 4, 6, 9),
    (3, 11, 6, 4, 10),
    (0, 9, 7, 5, 8),
    (1, 10, 5, 7, 11),
    (0, 8, 10, 1, 6),
    (2, 7, 3, 10, 8),
    (0, 4, 1, 11, 9),
    (2, 9, 11, 3, 5),
    (2, 5, 10, 4, 0),
    (0, 6, 11, 7, 2),
    (1, 4, 8, 5, 3),
    (3, 7, 9, 6, 1),
)


def icosahedron_triangulation() -> PlaneTriangulation:
    edges = [(v, u) for v, row in enumerate(_ICOSAHEDRON_ROT) for u in row if v < u]
    g = build_graph(12, edges)
    system = RotationSystem(g, _ICOSAHEDRON_ROT)
    outer = tuple(d[0] for d in _face_darts(system)[0])
    return PlaneTriangulation(system, outer)


def random_stacked_triangulation(n: int, seed: int) -> PlaneTriangulation:
    """Stack seed-chosen interior faces of K4 until the order reaches n."""
    if n < 4:
        raise ValueError("stacked triangulations start at order 4")
    tri = k4_triangulation()
    rng = random.Random(seed)
    while tri.graph.order < n:
        face_list = _face_darts(tri.embedding)
        outer = _match_face(face_list, tri.outer_face)
        candidates = [f for f in face_list if f != outer]
        choice = candidates[rng.randrange(len(candidates))]
        tri = stack_vertex(tri, tuple(d[0] for d in choice))
    return tri


# ---------------------------------------------------------------------------
# the constructive forest cut for plane triangulations


def _fan_path(
    tri: PlaneTriangulation, xy: tuple[int, int]
) -> tuple[int, Optional[list[int]], Optional[list[int]]]:
    """Apex z, the fan sequence x,u_1..u_k,y, and the chosen path positions.

    The path visits strictly increasing fan positions, skips the direct x-y
    jump, has the fewest interior vertices, and is lexicographically first
    among those.  Returns (z, None, None) when z has no fan (the triangle).
    """
    x, y = xy
    g = tri.graph
    outer = tri.outer_face
    if {x, y} - set(outer) or x == y or not g.has_edge(x, y):
        raise ValueError(f"edge ({x}, {y}) is not on the outer face {outer}")
    z = next(v for v in outer if v not in (x, y))

    rot_z = tri.embedding.rot[z]
    if len(rot_z) == 2:
        return z, None, None

    at = rot_z.index(x)
    spun = rot_z[at:] + rot_z[:at]
    if spun[-1] == y:
        fan = list(spun[1:-1])
    elif spun[1] == y:
        fan = list(reversed(spun[2:]))
    else:
        raise ValueError(f"outer face corner at {z} does not join {x} to {y}")

    seq = [x] + fan + [y]
    last = len(seq) - 1

    def hops(i: int, j: int) -> bool:
        if i == 0 and j == last:
            return False
        return g.has_edge(seq[i], seq[j])

    dist: list[Optional[int]] = [None] * (last + 1)
    dist[last] = 0
    for i in range(last - 1, -1, -1):
        best = None
        for j in range(i + 1, last + 1):
            if dist[j] is not None and hops(i, j):
                if best is None or dist[j] + 1 < best:
                    best = dist[j] + 1
        dist[i] = best
    assert dist[0] is not None, "fan path must exist in a triangulation"

    path = [0]
    while path[-1] != last:
        i = path[-1]
        nxt = next(
            j for j in range(i + 1, last + 1)
            if hops(i, j) and dist[j] == dist[i] - 1
        )
        path.append(nxt)
    return z, seq, path


def prop1_forest_cut(tri: PlaneTriangulation, xy: tuple[int, int]) -> int:
    """Forest cut of G - xy for an edge xy on the outer face.

    With outer face xyz, list the neighbors of z from x to y in rotation
    order; if z has no other neighbor the cut is {z}.  Otherwise take the
    shortest strictly index-increasing x-y path Q through that fan
    (lexicographically smallest on ties), avoiding the edge xy itself.  If
    the closed cycle Q+xy has vertices strictly inside (on the side away
    from z) the cut is V(Q); otherwise it is {z, u} for the first interior
    fan vertex u of Q.
    """
    x, y = xy
    g = tri.graph
    z, seq, path = _fan_path(tri, xy)
    if seq is None:
        return 1 << z
    q_verts = [seq[p] for p in path]

    cycle_edges = {frozenset(p) for p in zip(q_verts, q_verts[1:])}
    cycle_edges.add(frozenset((x, y)))

    face_list = _face_darts(tri.embedding)
    start = face_list.index(_match_face(face_list, tri.outer_face))
    by_dart = {}
    for idx, f in enumerate(face_list):
        for d in f:
            by_dart[d] = idx
    reached = {start}
    stack = [start]
    while stack:
        f = face_list[stack.pop()]
        for u, v in f:
            if frozenset((u, v)) in cycle_edges:
                continue
            other = by_dart[(v, u)]
            if other not in reached:
                reached.add(other)
                stack.append(other)
    seen_vertices = 0
    for idx in reached:
        seen_vertices |= vertex_set(d[0] for d in face_list[idx])
    interior = g.vertex_mask & ~seen_vertices
    if interior:
        return vertex_set(q_verts)
    return 1 << z | 1 << q_verts[1]


# ---------------------------------------------------------------------------
# rotation file interchange


def write_rotation_system(system: RotationSystem) -> str:
    lines = [str(system.graph.order)]
    for v, row in enumerate(system.rot):
        lines.append(f"{v}: " + " ".join(str(u) for u in row))
    return "\n".join(lines) + "\n"


def parse_rotation_system(text: str) -> RotationSystem:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty rotation input")
    n = int(rows[0])
    if len(rows) - 1 != n:
        raise ValueError(f"expected {n} rotation lines, found {len(rows) - 1}")
    rot: list[tuple[int, ...]] = [()] * n
    adj = [0] * n
    for ln in rows[1:]:
        head, _, tail = ln.partition(":")
        v = int(head)
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        row = tuple(int(tok) for tok in tail.split())
        rot[v] = row
        adj[v] = vertex_set(row)
    return RotationSystem(Graph(n, adj), tuple(rot))
