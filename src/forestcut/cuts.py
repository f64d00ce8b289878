"""Forest-cut and independent-cut finders.

The exhaustive finder scans subsets by ascending size and bit pattern and
is the oracle everything else is validated against.  The production
finders walk the inclusion-minimal vertex cuts instead: a subset of a
forest-inducing (or independent) set again induces a forest (is
independent), so an inclusion-minimal cut witnesses existence whenever any
witness exists.

Every finder asks for a connected graph of order at least 3, because the
empty set already separates a disconnected graph.  Each public query checks
that once, on entry (``_require_connected``), and then trusts it: the walk
``_minimal_separators`` checks nothing.  On K_n the walk yields nothing, as
every seed comes from a component of G - N[v] = empty, so the finders
return None for K_n without a test of their own.

The walk tests each set as it finds it and hands the finders the
components its test computed, so a finder that stops at its first hit
computes nothing after it.  Each set S is the neighbourhood of a component
C of G - X for an excluded set X that holds S, so C is already a full
component of G - S (it misses S and has no neighbour outside it), and the
test searches only G - S - C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional

from .graph import (
    Graph,
    component_neighbourhoods,
    induced_is_forest,
    induced_subgraph,
    is_complete,
    is_connected,
    is_independent_set,
    is_vertex_cut,
    iter_bits,
    masks_of_size,
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
    comps = component_neighbourhoods(g.adj, g.vertex_mask & ~w.cut)
    loc_a = [i for i, (c, _) in enumerate(comps) if c >> w.rep_a & 1]
    loc_b = [i for i, (c, _) in enumerate(comps) if c >> w.rep_b & 1]
    return len(loc_a) == 1 and len(loc_b) == 1 and loc_a != loc_b


def _make_witness(cut: int, comps: list[int], kind: str) -> CutWitness:
    """The witness for ``cut``, given the components of G - cut."""
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
    adj = g.adj
    full = g.vertex_mask
    for size in range(1, n - 1):
        for s in masks_of_size(n, size):
            comps = component_neighbourhoods(adj, full & ~s)
            if len(comps) >= 2 and induced_is_forest(g, s):
                return _make_witness(s, [c for c, _ in comps], FOREST)
    return None


def _minimal_separators(g: Graph) -> Iterator[tuple[int, list[int]]]:
    """Stream every inclusion-minimal vertex cut S of a connected graph exactly
    once, with the components of G - S.

    Close-neighbourhood expansion (Berry, Bordat and Cogis, IJFCS 11, 2000):
    the sets S are the neighbourhoods of the components of G - N[v] for each
    v, then of G - (S u N(x)) for each S in discovery order and x in S.  S is
    a minimal cut when G - S has two or more components and each sees all of
    S.  The component C of G - X (X = N[v] or S' u N(x)) that gives S = N(C)
    is already one of them: S lies in X, so C misses S, and C has no
    neighbour outside S.  So only G - S - C is searched again, and C is
    merged back by its lowest vertex.  Each set is tested where it is found;
    a FIFO pops in discovery order, so the stream is the one a walk testing
    each set as it leaves the queue would give.
    """
    adj = g.adj
    full = g.vertex_mask
    seen: set[int] = set()
    found: list[int] = []  # the FIFO: a list iterated while it grows
    closed = (adj[v] | 1 << v for v in range(g.order))
    expanded = (s | adj[x] for s in found for x in iter_bits(s))
    for excluded in chain(closed, expanded):
        for comp, s in component_neighbourhoods(adj, full & ~excluded):
            if s in seen:
                continue
            seen.add(s)
            found.append(s)
            rest = component_neighbourhoods(adj, full & ~s & ~comp)
            if rest and all(nbr == s for _, nbr in rest):
                yield s, sorted([comp, *(c for c, _ in rest)], key=lambda c: c & -c)


def enumerate_minimal_separators(g: Graph) -> Iterator[int]:
    """Every inclusion-minimal vertex cut of a connected, non-complete graph,
    once each, in the order ``_minimal_separators`` walks them."""
    _require_connected(g, minimum_order=1)
    if is_complete(g):
        raise ValueError("complete graphs have no separator")
    for s, _ in _minimal_separators(g):
        yield s


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


def _first_cut(g: Graph, accept: Callable[[int], bool], kind: str) -> Optional[CutWitness]:
    """The first minimal separator the walk meets that ``accept`` takes, as a witness."""
    for s, comps in _minimal_separators(g):
        if accept(s):
            return _make_witness(s, comps, kind)
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
    return _first_cut(g, lambda s: induced_is_forest(g, s), FOREST)


def find_independent_cut(g: Graph) -> Optional[CutWitness]:
    _require_connected(g)
    return _first_cut(g, lambda s: is_independent_set(g, s), INDEPENDENT)


def find_independent_cut_avoiding(g: Graph, u: int) -> Optional[CutWitness]:
    """Independent cut not containing ``u`` (any witness shrinks to one)."""
    _require_connected(g)
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} outside graph of order {g.order}")
    return _first_cut(g, lambda s: not s >> u & 1 and is_independent_set(g, s), INDEPENDENT)


def all_minimal_forest_cuts(g: Graph) -> list[int]:
    """Every inclusion-minimal vertex cut inducing a forest, sorted by size then bits."""
    _require_connected(g, minimum_order=2)
    if is_complete(g):
        raise ValueError("complete graphs have no vertex cut")
    cuts = [s for s, _ in _minimal_separators(g) if induced_is_forest(g, s)]
    cuts.sort(key=lambda s: (s.bit_count(), s))
    return cuts
