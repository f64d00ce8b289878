"""Immutable bitmask graphs plus the connectivity and degree primitives.

Vertices are integers 0..order-1 and every vertex set is a plain int used
as a bit set, so neighborhood intersections are single machine operations
for the orders this package targets (at most 128 vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 128


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_set(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bit set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class Graph:
    """Simple undirected graph; ``adj[v]`` is the bit set of neighbors of v."""

    __slots__ = ("order", "adj")

    def __init__(self, order: int, adj: Sequence[int]):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} outside 1..{MAX_ORDER}")
        adj = tuple(adj)
        if len(adj) != order:
            raise ValueError(f"adjacency has {len(adj)} rows for order {order}")
        full = (1 << order) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= {order}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(adj):
            for u in iter_bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.order == other.order and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __reduce__(self):
        return (Graph, (self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, m={self.size})"

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.order):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, deduplicating repeated pairs."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds {MAX_ORDER}")
    if order < 1:
        raise ValueError(f"order {order} must be positive")
    adj = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) outside order {order}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, adj)


# ---------------------------------------------------------------------------
# graph6 and edge-list interchange


def write_graph6(g: Graph) -> str:
    """Encode in standard short-form graph6 (orders up to 62)."""
    n = g.order
    if n > 62:
        raise ValueError(f"graph6 short form caps at 62 vertices, got {n}")
    out = [chr(63 + n)]
    buf = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            buf = buf << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line."""
    line = text.strip()
    if not line:
        raise ValueError("empty graph6 line")
    head = ord(line[0])
    if head == 126:
        raise ValueError("long-form graph6 (order > 62) not supported")
    if head < 63:
        raise ValueError(f"bad order byte {head}")
    n = head - 63
    if n < 1:
        raise ValueError("graph6 order 0 not representable here")
    npairs = n * (n - 1) // 2
    want = (npairs + 5) // 6
    body = line[1:]
    if len(body) != want:
        raise ValueError(f"expected {want} data bytes, got {len(body)}")
    adj = [0] * n
    bit = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"data byte {ord(ch)} outside 63..126")
        for k in range(5, -1, -1):
            if bit >= npairs:
                break
            if val >> k & 1:
                i, j = _pair_at(bit)
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    return Graph(n, adj)


def _pair_at(index: int) -> tuple[int, int]:
    # graph6 orders the upper triangle column by column: (0,1),(0,2),(1,2),...
    j = 1
    while j * (j + 1) // 2 <= index:
        j += 1
    i = index - j * (j - 1) // 2
    return i, j


def write_edge_list(g: Graph) -> str:
    """Plain text: header "n m", then one "u v" line per edge."""
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad edge-list header {rows[0]!r}")
    order, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(order, edges)


# ---------------------------------------------------------------------------
# connectivity primitives


def components(g: Graph, within: int | None = None) -> list[int]:
    """Connected components (as bit sets) of the subgraph induced by ``within``.

    Components are listed by ascending smallest member, so the output is
    deterministic.
    """
    sub = g.vertex_mask if within is None else within
    adj = g.adj
    out = []
    rest = sub
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v]
            frontier = grow & sub & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_complete(g: Graph) -> bool:
    return g.size == g.order * (g.order - 1) // 2


def neighborhood_of_set(g: Graph, mask: int) -> int:
    """Open neighborhood N(S): vertices outside ``mask`` adjacent to it."""
    nbr = 0
    for v in iter_bits(mask):
        nbr |= g.adj[v]
    return nbr & ~mask


def induced_is_forest(g: Graph, s: int) -> bool:
    """True iff the subgraph induced by the bit set ``s`` is acyclic."""
    edges = 0
    for v in iter_bits(s):
        edges += (g.adj[v] & s).bit_count()
    edges //= 2
    if edges == 0:
        return True
    count = s.bit_count()
    if edges >= count:
        return False
    return edges == count - len(components(g, s))


def is_independent_set(g: Graph, s: int) -> bool:
    for v in iter_bits(s):
        if g.adj[v] & s:
            return False
    return True


def is_vertex_cut(g: Graph, s: int) -> bool:
    """True iff removing ``s`` leaves at least two components.

    Requires a connected graph; an empty remainder counts as not a cut.
    """
    if not is_connected(g):
        raise ValueError("cut predicates require a connected graph")
    rest = g.vertex_mask & ~s
    if rest == 0:
        return False
    return len(components(g, rest)) >= 2


def vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    """Brute-force k-connectivity test, meant for small k (at most ~5)."""
    n = g.order
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    if not is_connected(g):
        raise ValueError("connectivity test requires a connected graph")
    if is_complete(g):
        return True
    full = g.vertex_mask
    for size in range(1, k):
        for s in masks_of_size(n, size):
            if len(components(g, full & ~s)) >= 2:
                return False
    return True


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bit sets, in ascending numeric order."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


# ---------------------------------------------------------------------------
# degree bookkeeping


@dataclass(frozen=True)
class DegreeProfile:
    """Counts of vertices by degree, refined for degree-4 vertices.

    ``n_i[i]`` counts vertices of degree i for 4 <= i <= order-1 and
    ``n_4_j[j]`` splits the degree-4 vertices by the maximum degree j among
    their neighbors.  ``partition_valid`` is False when some degree-4 vertex
    has no neighbor of degree 5 or more, in which case the n_4_j counts do
    not partition the degree-4 vertices.
    """

    order: int
    n_i: dict[int, int]
    n_4_j: dict[int, int]
    n_4_6_prime: int
    n_4_6_doubleprime: int
    partition_valid: bool

    def count_degree(self, i: int) -> int:
        return self.n_i.get(i, 0)


def degree_profile(g: Graph) -> DegreeProfile:
    n = g.order
    degs = [g.degree(v) for v in range(n)]
    n_i = {i: 0 for i in range(4, n)}
    for d in degs:
        if d >= 4:
            n_i[d] += 1
    n_4_j = {j: 0 for j in range(5, n)}
    prime = 0
    doubleprime = 0
    valid = True
    for v in range(n):
        if degs[v] != 4:
            continue
        nbr_degs = [degs[u] for u in g.neighbors(v)]
        top = max(nbr_degs)
        if top <= 4:
            valid = False
            continue
        n_4_j[top] += 1
        if top == 6:
            if nbr_degs.count(6) == 1:
                prime += 1
            else:
                doubleprime += 1
    return DegreeProfile(n, n_i, n_4_j, prime, doubleprime, valid)


def degree_sum(g: Graph, s: int) -> int:
    """Sum of degrees over the vertex set ``s``."""
    return sum(g.degree(v) for v in iter_bits(s))


# ---------------------------------------------------------------------------
# derived graphs


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced by ``mask``, vertices relabeled in ascending order."""
    verts = list(iter_bits(mask))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in iter_bits(g.adj[v] & mask):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(verts), adj)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.order, adj)


def add_vertex(g: Graph, neighbors_mask: int) -> Graph:
    """New graph with one extra vertex adjacent to ``neighbors_mask``."""
    n = g.order
    adj = list(g.adj)
    for v in iter_bits(neighbors_mask):
        adj[v] |= 1 << n
    adj.append(neighbors_mask)
    return Graph(n + 1, adj)
