"""Plane triangulations via rotation systems and the constructive forest cut.

A rotation system stores, for every vertex, the cyclic order of its
neighbors in a sphere embedding.  Faces are traced combinatorially: the
dart following (u, v) is (v, w) where w succeeds u in the rotation at v.
No coordinates and no planarity testing are involved anywhere; embeddings
are either generator outputs or parsed rotation files.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graph import MAX_ORDER, Graph, _ascii_ints, _text_lines, component_neighbourhoods, iter_bits, vertex_set

Dart = tuple[int, int]
FaceDarts = tuple[Dart, ...]


@dataclass(frozen=True)
class RotationSystem:
    """A cyclic neighbor order at every vertex; ``graph`` joins each vertex to its row.

    Each row must name vertices in range, and ``Graph`` checks that the rows
    are loop-free and symmetric, so the one check left is that no row
    repeats a neighbor."""

    rot: tuple[tuple[int, ...], ...]
    graph: Graph = field(init=False, compare=False)

    def __post_init__(self):
        rot = tuple(tuple(row) for row in self.rot)
        n = len(rot)
        for v, row in enumerate(rot):
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(f"rotation at {v} names vertex {u} outside 0..{n - 1}")
        g = Graph(n, [vertex_set(row) for row in rot])
        for v, row in enumerate(rot):
            if len(row) != g.degree(v):
                raise ValueError(f"rotation at {v} is not a permutation of its neighbors")
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "graph", g)

    @cached_property
    def _faces(self) -> tuple[FaceDarts, ...]:
        """The faces as dart cycles in trace order, traced on first use and kept."""
        return tuple(_face_darts(self))


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
    return [_min_rotation([d[0] for d in f]) for f in system._faces]


@dataclass(frozen=True)
class PlaneTriangulation:
    """A rotation system all of whose faces are triangles, plus an outer face."""

    embedding: RotationSystem
    outer_face: tuple[int, int, int]

    def __post_init__(self):
        face_list = self.embedding._faces
        if any(len(f) != 3 for f in face_list):
            raise ValueError("embedding has a non-triangular face")
        if _match_face(face_list, self.outer_face) is None:
            raise ValueError(f"{self.outer_face} is not a face of the embedding")

    @property
    def graph(self) -> Graph:
        return self.embedding.graph


def _match_face(face_list: Iterable[FaceDarts], triple: Sequence[int]) -> Optional[FaceDarts]:
    """Find the traced triangle on a vertex triple, in either orientation."""
    if len(triple) != 3:
        return None
    want = set(triple)
    return next((f for f in face_list if f[0][0] in want and {d[0] for d in f} == want), None)


def reroot(tri: PlaneTriangulation, face: Sequence[int]) -> PlaneTriangulation:
    """Re-designate the outer face; on the sphere any face qualifies.

    ``tri`` was checked when it was built, so only the new face is: it must
    be a traced face.
    """
    face = tuple(face)
    if _match_face(tri.embedding._faces, face) is None:
        raise ValueError(f"{face} is not a face of the embedding")
    rooted = object.__new__(PlaneTriangulation)
    object.__setattr__(rooted, "embedding", tri.embedding)
    object.__setattr__(rooted, "outer_face", face)
    return rooted


def face_containing_edge(system: RotationSystem, u: int, v: int) -> tuple[int, ...]:
    """The first traced face bounded by the edge uv, as a vertex tuple."""
    for f in system._faces:
        if (u, v) in f or (v, u) in f:
            return tuple(d[0] for d in f)
    raise ValueError(f"({u}, {v}) does not bound a face")


def _stack_into(rot: list[list[int]], corners: Sequence[int]) -> int:
    """Add a vertex w = len(rot) inside the face with the cycle ``corners``.

    Rotations change only locally: w slips into each corner rotation right
    after the face predecessor, and its own rotation is the face cycle
    reversed.  Returns w.
    """
    w = len(rot)
    for u, v in zip(corners, corners[1:] + corners[:1]):
        row = rot[v]
        row.insert(row.index(u) + 1, w)
    rot.append(list(reversed(corners)))
    return w


def stack_vertex(tri: PlaneTriangulation, face: Sequence[int]) -> PlaneTriangulation:
    """Insert a new vertex into a face, joined to the three corners."""
    system = tri.embedding
    target = _match_face(system._faces, tuple(face))
    if target is None:
        raise ValueError(f"{tuple(face)} is not a face of the embedding")
    corners = tuple(d[0] for d in target)
    new_rot = [list(r) for r in system.rot]
    w = _stack_into(new_rot, corners)
    outer = tri.outer_face
    if set(corners) == set(outer):
        outer = (corners[0], corners[1], w)
    return PlaneTriangulation(RotationSystem(new_rot), outer)


def k4_triangulation() -> PlaneTriangulation:
    rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
    return PlaneTriangulation(RotationSystem(rot), (0, 1, 2))


def triangle_triangulation() -> PlaneTriangulation:
    return PlaneTriangulation(RotationSystem(((1, 2), (2, 0), (0, 1))), (0, 1, 2))


def octahedron_triangulation() -> PlaneTriangulation:
    rot = ((1, 2, 4, 5), (0, 5, 3, 2), (0, 1, 3, 4), (1, 5, 4, 2), (0, 2, 3, 5), (0, 4, 3, 1))
    return PlaneTriangulation(RotationSystem(rot), (0, 1, 5))


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
    return PlaneTriangulation(RotationSystem(_ICOSAHEDRON_ROT), (0, 2, 9))


def random_stacked_triangulation(n: int, seed: int) -> PlaneTriangulation:
    """Stack seed-chosen interior faces of K4 until the order reaches n.

    Each step stacks into the face at a seeded position of the traced face
    list, the outer face left out, exactly as one ``stack_vertex`` call per
    vertex would.  The faces are kept without tracing them again: in a
    triangulation ``_face_darts`` first meets each face at its dart out of
    its least vertex a, so the trace order is the order of the key
    (a, position in rot[a] of the vertex after a).  Stacking only inserts
    into rotations, so the surviving faces keep their relative order, and
    the three new faces are placed by bisection on that key.  The
    triangulation is built and validated once, at the end.
    """
    if n < 4:
        raise ValueError("stacked triangulations start at order 4")
    if n > MAX_ORDER:
        raise ValueError(f"stacked triangulations stop at order {MAX_ORDER}, got {n}")
    tri = k4_triangulation()
    rot = [list(r) for r in tri.embedding.rot]
    # each face as its vertex cycle from its least vertex, in trace order
    face_list = [tuple(d[0] for d in f) for f in tri.embedding._faces]

    def key(f: tuple[int, ...]) -> tuple[int, int]:
        return f[0], rot[f[0]].index(f[1])

    # The outer face (0, 1, 2) is traced first, from the dart (0, 1), and
    # stays first: no insertion lands at the head of a rotation, so rot[0]
    # keeps starting at 1.  The seeded pick skips it by position.
    rng = random.Random(seed)
    while len(rot) < n:
        corners = face_list.pop(1 + rng.randrange(len(face_list) - 1))
        w = _stack_into(rot, corners)
        # the new faces are x y w for each face dart (x, y); w is the largest
        for x, y in zip(corners, corners[1:] + corners[:1]):
            insort(face_list, (x, y, w) if x < y else (y, w, x), key=key)
    return PlaneTriangulation(RotationSystem(rot), tri.outer_face)


# ---------------------------------------------------------------------------
# the constructive forest cut for plane triangulations


def _fan_path(
    tri: PlaneTriangulation, xy: tuple[int, int]
) -> tuple[int, Optional[list[int]], Optional[list[int]]]:
    """Apex z, the fan sequence x,u_1..u_k,y, and the chosen path positions.

    The path is the unique shortest x-y path through strictly increasing fan
    positions without the direct x-y jump; each step goes to the farthest
    adjacent position.  Proof: an edge between non-consecutive fan vertices
    is a chord of z's link cycle x u_1 .. u_k y in the one disk outside z's
    wheel, so no two chords cross.  If g is the farthest position adjacent
    to i, a path from i that misses g jumps from p to q with i < p < g < q
    (p = i would beat g), and the chord pq would cross ig.  So every such
    path contains the greedy one.  Returns (z, None, None) for the triangle.
    """
    x, y = xy
    outer = tri.outer_face
    # no edge test for xy: two corners of a triangular face are adjacent
    if {x, y} - set(outer) or x == y:
        raise ValueError(f"edge ({x}, {y}) is not on the outer face {outer}")
    z = next(v for v in outer if v not in (x, y))

    rot_z = tri.embedding.rot[z]
    if len(rot_z) == 2:
        return z, None, None

    # x z y is a traced face, so x and y are neighbours in the rotation at z
    at = rot_z.index(x)
    spun = rot_z[at:] + rot_z[:at]
    seq = [x, *(spun[1:-1] if spun[-1] == y else spun[:1:-1]), y]
    pos = {v: p for p, v in enumerate(seq)}
    fan = vertex_set(seq)
    adj = tri.graph.adj
    path = [0]
    row = adj[x] & ~(1 << y)  # x skips the jump to y
    while path[-1] != len(seq) - 1:  # each step moves on: the next fan vertex is adjacent
        path.append(max(pos[v] for v in iter_bits(row & fan)))
        row = adj[seq[path[-1]]]
    return z, seq, path


def prop1_forest_cut(tri: PlaneTriangulation, xy: tuple[int, int]) -> int:
    """Forest cut of G - xy for an edge xy on the outer face.

    With outer face xyz, list the neighbors of z from x to y in rotation
    order; if z has no other neighbor the cut is {z}.  Otherwise take the
    shortest strictly index-increasing x-y path Q through that fan, avoiding
    the edge xy itself; it is unique (``_fan_path``).  If the closed cycle
    Q+xy has vertices strictly inside (on the side away from z) the cut is
    V(Q); otherwise it is {z, u} for the first interior fan vertex u of Q.
    The inside is nonempty exactly when G - V(Q) has more than one
    component, so one ``component_neighbourhoods`` call decides it.
    """
    g = tri.graph
    z, seq, path = _fan_path(tri, xy)
    if seq is None:
        return 1 << z
    q_mask = vertex_set(seq[p] for p in path)
    # Every vertex on z's side of Q + xy reaches z without touching V(Q):
    # through z's fan, or through the inside of a separating triangle
    # z q_i q_(i+1).  By the Jordan curve theorem no vertex inside the cycle
    # can reach z.  So the inside is nonempty iff G - V(Q) is disconnected.
    if len(component_neighbourhoods(g.adj, g.vertex_mask & ~q_mask)) > 1:
        return q_mask
    return 1 << z | 1 << seq[path[1]]


# ---------------------------------------------------------------------------
# rotation file interchange


def write_rotation_system(system: RotationSystem) -> str:
    lines = [str(system.graph.order)]
    for v, row in enumerate(system.rot):
        lines.append(f"{v}: " + " ".join(str(u) for u in row))
    return "\n".join(lines) + "\n"


def parse_rotation_system(text: str) -> RotationSystem:
    rows = _text_lines(text)
    if not rows:
        raise ValueError("empty rotation input")
    if not (rows[0].isascii() and rows[0].isdecimal()):
        raise ValueError(f"bad rotation header {rows[0]!r}")
    n = int(rows[0])
    if len(rows) - 1 != n:
        raise ValueError(f"expected {n} rotation lines, found {len(rows) - 1}")
    rot: list[Optional[tuple[int, ...]]] = [None] * n
    for ln in rows[1:]:
        head, _, tail = ln.partition(":")
        try:
            (v,) = _ascii_ints(head)
            row = tuple(_ascii_ints(tail))
        except ValueError:
            raise ValueError(f"bad rotation line {ln!r}") from None
        for u in (v, *row):
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} outside 0..{n - 1}")
        if rot[v] is not None:
            raise ValueError(f"vertex {v} listed twice")
        rot[v] = row
    return RotationSystem(rot)
