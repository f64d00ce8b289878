"""Forest-cut and independent-cut finders.

The exhaustive finder scans subsets by ascending size and bit pattern and
is the oracle everything else is validated against.  The production
finders walk the inclusion-minimal vertex cuts instead: a subset of a
forest-inducing (or independent) set again induces a forest (is
independent), so an inclusion-minimal cut witnesses existence whenever any
witness exists.

Every finder asks for a connected graph of order at least 3, because the
empty set already separates a disconnected graph.  A complete graph has no
vertex cut, so the finders return None for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .graph import (
    Graph,
    components,
    induced_is_forest,
    induced_subgraph,
    is_complete,
    is_connected,
    is_independent_set,
    is_vertex_cut,
    iter_bits,
    masks_of_size,
    neighborhood_of_set,
)

EXHAUSTIVE_ORDER_CAP = 28

FOREST = "forest"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class CutWitness:
    """A vertex cut plus evidence: two separated vertices and its kind."""

    cut: int
    rep_a: int
    rep_b: int
    kind: str

    def vertices(self) -> list[int]:
        return list(iter_bits(self.cut))


def witness_is_valid(g: Graph, w: CutWitness) -> bool:
    """Revalidate a witness from scratch."""
    if not is_vertex_cut(g, w.cut):
        return False
    if w.kind == FOREST and not induced_is_forest(g, w.cut):
        return False
    if w.kind == INDEPENDENT and not is_independent_set(g, w.cut):
        return False
    comps = components(g, g.vertex_mask & ~w.cut)
    loc_a = [i for i, c in enumerate(comps) if c >> w.rep_a & 1]
    loc_b = [i for i, c in enumerate(comps) if c >> w.rep_b & 1]
    return len(loc_a) == 1 and len(loc_b) == 1 and loc_a != loc_b


def _make_witness(g: Graph, cut: int, kind: str) -> CutWitness:
    comps = components(g, g.vertex_mask & ~cut)
    rep_a = (comps[0] & -comps[0]).bit_length() - 1
    rep_b = (comps[1] & -comps[1]).bit_length() - 1
    return CutWitness(cut, rep_a, rep_b, kind)


def _require_connected(g: Graph, minimum_order: int = 3) -> None:
    if g.order < minimum_order:
        raise ValueError(f"graph of order {g.order} has no vertex cut to look for")
    if not is_connected(g):
        raise ValueError(
            "cut search requires a connected graph; the empty set separates a disconnected one"
        )


def find_forest_cut_exhaustive(g: Graph) -> Optional[CutWitness]:
    """Scan all subsets by size, then bit pattern; first forest cut wins."""
    _require_connected(g)
    if g.order > EXHAUSTIVE_ORDER_CAP:
        raise ValueError(f"exhaustive search capped at {EXHAUSTIVE_ORDER_CAP} vertices")
    n = g.order
    full = g.vertex_mask
    for size in range(1, n - 1):
        for s in masks_of_size(n, size):
            if len(components(g, full & ~s)) >= 2 and induced_is_forest(g, s):
                return _make_witness(g, s, FOREST)
    return None


def enumerate_minimal_separators(g: Graph) -> Iterator[int]:
    """Stream every inclusion-minimal vertex cut exactly once.

    Candidate separators are grown by close-neighborhood expansion: the
    neighborhoods of the components of G - N[v] seed the search, and for a
    known separator S and s in S the components of G - (S u N(s)) supply
    new ones.  That walk reaches every minimal a-b separator; the sets
    emitted are the ones whose removal leaves only components seeing all of
    S, which is exactly inclusion-minimality as a cut.
    """
    if not is_connected(g):
        raise ValueError("separator enumeration requires a connected graph")
    if is_complete(g):
        raise ValueError("complete graphs have no separator")
    adj = g.adj
    full = g.vertex_mask

    def close_separators(excluded: int) -> list[int]:
        out = []
        for comp in components(g, full & ~excluded):
            nbr = neighborhood_of_set(g, comp)
            if nbr:
                out.append(nbr)
        return out

    def is_minimal_cut(s: int) -> bool:
        comps = components(g, full & ~s)
        if len(comps) < 2:
            return False
        return all(neighborhood_of_set(g, c) == s for c in comps)

    seen: set[int] = set()
    queue: deque[int] = deque()
    for v in range(g.order):
        for s in close_separators(adj[v] | 1 << v):
            if s not in seen:
                seen.add(s)
                queue.append(s)
    while queue:
        s = queue.popleft()
        if is_minimal_cut(s):
            yield s
        for x in iter_bits(s):
            for t in close_separators(s | adj[x]):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)


def universal_vertex_reduction(g: Graph) -> Optional[tuple[int, Graph]]:
    """Split off the lowest universal vertex u, returning (u, G - u).

    A forest cut of the original graph is exactly {u} plus an independent
    cut of the remainder.  The finders do not need it; it tells callers
    which graphs have a universal vertex.
    """
    if g.order < 2:
        return None
    full = g.vertex_mask
    for v in range(g.order):
        if g.adj[v] == full ^ (1 << v):
            rest = full ^ (1 << v)
            return v, induced_subgraph(g, rest)
    return None


def find_forest_cut(g: Graph) -> Optional[CutWitness]:
    """Separator-driven forest-cut finder, existence-equivalent to the oracle.

    The first inclusion-minimal cut inducing a forest wins; a complete graph
    gives None.  A graph with a universal vertex u takes no separate path:
    every vertex cut contains u, and the walk meets the cuts {u} + S in the
    order a walk of G - u meets its cuts S.  No order cap, but the number of
    minimal separators is exponential in the worst case; intended for the
    sparse instances this package targets.
    """
    _require_connected(g)
    if is_complete(g):
        return None
    for s in enumerate_minimal_separators(g):
        if induced_is_forest(g, s):
            return _make_witness(g, s, FOREST)
    return None


def find_independent_cut(g: Graph) -> Optional[CutWitness]:
    _require_connected(g)
    if is_complete(g):
        return None
    for s in enumerate_minimal_separators(g):
        if is_independent_set(g, s):
            return _make_witness(g, s, INDEPENDENT)
    return None


def find_independent_cut_avoiding(g: Graph, u: int) -> Optional[CutWitness]:
    """Independent cut not containing ``u`` (any witness shrinks to one)."""
    _require_connected(g)
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} outside graph of order {g.order}")
    if is_complete(g):
        return None
    for s in enumerate_minimal_separators(g):
        if not s >> u & 1 and is_independent_set(g, s):
            return _make_witness(g, s, INDEPENDENT)
    return None


def all_minimal_forest_cuts(g: Graph) -> list[int]:
    """Every inclusion-minimal vertex cut inducing a forest, sorted by size then bits."""
    _require_connected(g, minimum_order=2)
    if is_complete(g):
        raise ValueError("complete graphs have no vertex cut")
    cuts = [s for s in enumerate_minimal_separators(g) if induced_is_forest(g, s)]
    cuts.sort(key=lambda s: (s.bit_count(), s))
    return cuts
