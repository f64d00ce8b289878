"""Immutable bitmask graphs plus the connectivity and degree primitives.

Vertices are integers 0..order-1 and every vertex set is a plain int used
as a bit set, so neighborhood intersections are single machine operations
for the orders this package targets (at most 128 vertices).
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 128

# string.whitespace, spelled out: importing string compiles a regex
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"
_ASCII_TOKEN = re.compile(f"[^{_ASCII_WHITESPACE}]+")

# graph6 data byte -> its six bits, most significant first, and back
_SIX_BITS = {byte: format(byte - 63, "06b") for byte in range(63, 127)}
_SIX_BITS.update({bits: chr(byte) for byte, bits in _SIX_BITS.items()})


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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the bit set of neighbors of v."""

    order: int
    adj: tuple[int, ...]

    def __post_init__(self):
        order = self.order
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} outside 1..{MAX_ORDER}")
        adj = tuple(self.adj)
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
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, order: int, adj: Sequence[int]) -> Graph:
        """A graph from rows its caller built symmetric and loop-free, over
        vertices below ``order``, with 1 <= order <= MAX_ORDER.  Nothing is
        checked, so only package code that builds the rows itself calls this."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def __reduce__(self):
        # the rows were checked when this graph was built
        return (Graph._trusted, (self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, m={self.size})"

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.adj)) // 2

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
    return Graph._trusted(order, adj)


# ---------------------------------------------------------------------------
# graph6 and edge-list interchange


def write_graph6(g: Graph) -> str:
    """Encode in standard graph6: the short form up to order 62, and above
    it the long form, ``~`` then the order in three 6-bit bytes.  The body
    is the column word ``parse_graph6`` reads, six bits to a byte."""
    n = g.order
    if n > 62:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    else:
        head = chr(63 + n)
    word = 0
    for j in range(n - 1, 0, -1):
        word = word << j | g.adj[j] & ((1 << j) - 1)
    nbits = (n * (n - 1) // 2 + 5) // 6 * 6  # the pairs, padded to whole bytes
    bits = format(word, f"0{nbits}b")[::-1]
    return head + "".join(_SIX_BITS[bits[k:k + 6]] for k in range(0, nbits, 6))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line, in the short form or, for orders 63..128, the
    long form.

    graph6 is ASCII, so only ASCII whitespace around the line is ignored; a
    non-ASCII space stays in the line and fails it.
    """
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
    want = (n * (n - 1) // 2 + 5) // 6
    if len(body) != want:
        raise ValueError(f"expected {want} data bytes, got {len(body)}")
    bits = body.translate(_SIX_BITS)
    if len(bits) != 6 * want:  # a byte outside the table stays one character
        bad = next(ch for ch in body if ord(ch) not in _SIX_BITS)
        raise ValueError(f"data byte {ord(bad)} outside 63..126")
    # The bits run column j = 1, 2, ..., each holding rows i < j.  Reversed,
    # they read as one int whose bit j(j-1)/2 + i is the pair (i, j), so each
    # column is the low j bits of what the earlier columns leave.
    word = int(bits[::-1] or "0", 2)
    adj = [0] * n
    for j in range(1, n):
        col = word & ((1 << j) - 1)
        word >>= j
        if col:
            adj[j] = col  # the columns after j add only bits above j
            bit = 1 << j
            while col:
                low = col & -col
                adj[low.bit_length() - 1] |= bit
                col ^= low
    return Graph._trusted(n, adj)


def _long_form_order(field: str) -> int:
    """The order in the three bytes after a long-form ``~``.  A second ``~``
    opens the eight-byte form, for orders above 258047."""
    if field[:1] == "~":
        raise ValueError(f"graph6 order above 258047, outside 63..{MAX_ORDER}")
    if len(field) < 3:
        raise ValueError("long-form graph6 needs three order bytes")
    n = 0
    for ch in field:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"bad order byte {val + 63}")
        n = n << 6 | val
    if not 63 <= n <= MAX_ORDER:
        raise ValueError(f"long-form graph6 order {n} outside 63..{MAX_ORDER}")
    return n


def write_edge_list(g: Graph) -> str:
    """Plain text: header "n m", then one "u v" line per edge."""
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_lines(path: str) -> Iterator[str]:
    """The lines of the file at ``path``, or of stdin for ``-``, split at
    ``\\n``, ``\\r`` and ``\\r\\n`` alike; stdin stays open.

    The inputs are ASCII.  Read as latin-1, a stray byte reaches the parser,
    whose message names it, instead of failing the decode.
    """
    if path != "-":
        with open(path, encoding="latin-1") as fh:
            yield from fh
        return
    if sys.stdin is None:  # the process started with stdin closed
        raise OSError("stdin is closed")
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text stream put in place of stdin is already decoded
        yield from io.StringIO(sys.stdin.read(), newline=None)
        return
    text = io.TextIOWrapper(buffer, encoding="latin-1")
    try:
        yield from text
    finally:
        text.detach()  # stdin stays open


def _text_lines(text: str) -> list[str]:
    """The non-blank lines of a graph6, edge-list or rotation input, split and
    stripped at ASCII line breaks and whitespace only.

    The formats are ASCII.  str.splitlines and str.strip also act on 0x85
    and 0xa0 read as latin-1; here a line holding them fails its parse.
    """
    lines = (ln.strip(_ASCII_WHITESPACE) for ln in text.replace("\r", "\n").split("\n"))
    return [ln for ln in lines if ln]


def _ascii_ints(line: str) -> list[int]:
    """The integers of an ASCII line, split at ASCII whitespace only: ASCII
    digits with an optional leading '-', so int's '1_0' and '+1' are refused."""
    tokens = _ASCII_TOKEN.findall(line)
    if not line.isascii() or not all(tok.removeprefix("-").isdigit() for tok in tokens):
        raise ValueError(f"non-integer token in {line!r}")
    return [int(tok) for tok in tokens]


def parse_edge_list(text: str) -> Graph:
    rows = _text_lines(text)
    if not rows:
        raise ValueError("empty edge-list input")
    try:
        order, m = _ascii_ints(rows[0])
    except ValueError:
        raise ValueError(f"bad edge-list header {rows[0]!r}") from None
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = {}
    for ln in rows[1:]:
        try:
            u, v = _ascii_ints(ln)
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        pair = frozenset((u, v))
        if pair in edges:
            raise ValueError(f"edge ({u}, {v}) repeats edge {edges[pair]}")
        edges[pair] = (u, v)
    return build_graph(order, edges.values())


# ---------------------------------------------------------------------------
# connectivity primitives


def component_neighbourhoods(adj: Sequence[int], sub: int) -> list[tuple[int, int]]:
    """Each connected component C of the subgraph induced by ``sub``, paired
    with its open neighbourhood N(C), by ascending smallest member of C.

    One breadth-first search per component reads the row of each vertex of
    ``sub`` once.  N(C) costs nothing more: the union of the rows read from C
    holds C's neighbours, and those outside ``sub`` are exactly N(C).
    """
    out = []
    rest = sub
    while rest:
        comp = frontier = rest & -rest
        reach = 0
        while frontier:
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & sub & ~comp
            comp |= frontier
        out.append((comp, reach & ~sub))
        rest &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(component_neighbourhoods(g.adj, g.vertex_mask)) == 1


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
    return edges == count - len(component_neighbourhoods(g.adj, s))


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
    return len(component_neighbourhoods(g.adj, g.vertex_mask & ~s)) >= 2


def vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    """Brute-force k-connectivity test, meant for small k (at most ~5).

    The package's one definition of k-connected, for any integer k: more
    than k vertices, and no vertex cut of fewer than k vertices, the empty
    set included.  So k <= 0 asks nothing, an order <= k answers False, a
    disconnected graph is not k-connected for any k >= 1, and K_n is
    (n-1)-connected: removing at most n - 2 vertices leaves a clique.

    For k >= 2 a vertex v of degree below k answers at once: as k <= n - 1,
    v has a non-neighbour, and v is isolated in G - N(v), so N(v) is a cut
    of fewer than k vertices.  Past that exit every vertex has degree at
    least 2, so each component of a disconnected G has at least 3 vertices
    and G - 0 is disconnected: the search starts at cut size 1.
    """
    n = g.order
    if k <= 0 or n <= k:  # nothing asked, or too few vertices
        return k <= 0
    adj = g.adj
    if k >= 2 and min(map(int.bit_count, adj)) < k:
        return False
    full = g.vertex_mask
    for size in range(0 if k == 1 else 1, k):
        for s in masks_of_size(n, size):
            if len(component_neighbourhoods(adj, full & ~s)) >= 2:
                return False
    return True


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bit sets, in ascending numeric order."""
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


# ---------------------------------------------------------------------------
# derived graphs


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced by ``mask``, vertices relabeled in ascending order."""
    verts = list(iter_bits(mask))
    if not verts:
        raise ValueError(f"order 0 outside 1..{MAX_ORDER}")
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in iter_bits(g.adj[v] & mask):
            adj[index[v]] |= 1 << index[u]
    return Graph._trusted(len(verts), adj)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph._trusted(g.order, adj)
