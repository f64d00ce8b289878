"""Forest-cut and independent-cut finders.

The exhaustive finder scans subsets by ascending size and bit pattern and
is the oracle everything else is validated against.  The production
finders walk the inclusion-minimal vertex cuts instead: a subset of a
forest-inducing (or independent) set again induces a forest (is
independent), so an inclusion-minimal cut witnesses existence whenever any
witness exists.

Every public query asks, on entry, for a connected graph of order at least
3 (``_require_connected``), because the empty set already separates a
disconnected graph.  The walk ``_minimal_separators`` checks nothing and
needs no check: on a disconnected graph it yields the empty set alone, so
the claims in ``verify`` walk every graph of order at least 3 that their
filters pass, connected or not.  On K_n the walk yields nothing, as every
G - N[v] is empty, so every query gives an empty result for K_n without a
test of its own.

The walk searches G - X once per distinct excluded set X and reads from it
the new sets, whether each is a minimal cut, and (``_make_witness``) the
witness of the one cut a finder returns.  It tests each set as it finds it,
so a finder that stops at its first hit computes nothing after it, and a
graph with no forest cut costs one search per distinct excluded set.
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


def witness_is_valid(g: Graph, w: CutWitness) -> bool:
    """Revalidate a witness from scratch; a kind other than forest or
    independent, or a vertex outside G, is refused."""
    holds = {FOREST: induced_is_forest, INDEPENDENT: is_independent_set}.get(w.kind)
    n = g.order
    if holds is None or not is_vertex_cut(g, w.cut) or w.cut & ~g.vertex_mask:
        return False
    if not (holds(g, w.cut) and 0 <= w.rep_a < n and 0 <= w.rep_b < n):
        return False
    # two distinct representatives outside the cut, in two components
    reps = 1 << w.rep_a | 1 << w.rep_b
    comps = component_neighbourhoods(g.adj, g.vertex_mask & ~w.cut)
    return sum(1 for c, _ in comps if c & reps) == 2


def _make_witness(g: Graph, cut: int, comps: list[tuple[int, int]], kind: str) -> CutWitness:
    """A minimal cut's witness, from the search that met it: G - cut has the
    searched components whose N(C) is the cut, and the rest, if not empty.
    The representatives are the lowest vertices of the two lowest."""
    full = [c for c, nbr in comps if nbr == cut]
    rest = g.vertex_mask & ~cut & ~sum(full)  # disjoint, so the sum is the union
    low_a, low_b = sorted(c & -c for c in [*full, rest] if c)[:2]
    return CutWitness(cut, low_a.bit_length() - 1, low_b.bit_length() - 1, kind)


def _require_connected(g: Graph) -> None:
    if g.order < 3:
        raise ValueError(f"graph of order {g.order} has no vertex cut to look for")
    if not is_connected(g):
        raise ValueError(
            "cut search requires a connected graph; the empty set separates a disconnected one"
        )


def find_forest_cut_exhaustive(g: Graph) -> Optional[CutWitness]:
    """Scan all subsets by size, then bit pattern; the first forest cut S
    wins.  S is inclusion-minimal, as a cut inside it is a smaller forest
    cut, so each component C of G - S sees all of S (else S - v separates C
    from the v it misses): the search of G - S is the witness, with no rest."""
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
                return _make_witness(g, s, comps, FOREST)
    return None


def _minimal_separators(g: Graph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Stream every inclusion-minimal vertex cut S of a graph exactly once,
    with the search of G - X that met it, as ``component_neighbourhoods`` gave it.

    Close-neighbourhood expansion (Berry, Bordat and Cogis, IJFCS 11, 2000):
    the minimal separators are the neighbourhoods N_i = N(C_i) of the
    components C_i of G - X, for X = N[v] for each v, then X = S' u N(x) for
    each separator S' in discovery order and x in S'.  S is a minimal cut
    when every component of G - S sees all of S.  A repeated X gives only
    separators already seen, so each distinct X is searched once; the sets
    searched are kept apart from the separators, as an X can equal one.

    The search of G - X also decides minimality.  The components of G - N_i
    are C_i, each C_j with N_j a subset of N_i, and one more, D: the rest,
    which holds v (or x) and sees all of N_i.
    - X = N[v]: v misses C_i, so N_i lies in N(v).  X - N_i is v and some of
      its neighbours, and v sees all of N_i.
    - X = S' u N(x): x misses C_i, so x is not in N_i, and each vertex of
      N(x) - N_i is adjacent to x.  C_i lies in a component A of G - S', so
      N_i lies in A u S'.  G - S' has a full component B other than A; B
      misses N_i and sees all of S', x included.  So S' - N_i reaches x
      through B, and each vertex of N_i is adjacent to x or to B.
    - Each C_j with N_j not a subset of N_i touches X - N_i, so lies in D.
    C_i and D are full, so each N_i is a minimal separator, as the second
    case needs of S'.  N_i is a minimal cut exactly when no N_j is a proper
    subset of it, and then the components of G - N_i are the C_j with
    N_j = N_i, and D.  Each set is tested where it is found; a FIFO pops in
    discovery order, so the stream is the one a walk testing each set as it
    leaves the queue would give.

    The walk is exact on a disconnected graph too, whose one minimal cut is
    the empty set.  N[v] lies in one component of G, so each N_i found in
    its search does, and so, inductively, does every excluded set, as the
    empty set expands to none.  So every search meets a whole other
    component, whose neighbourhood is empty.  The first search finds the
    empty set, a minimal cut whose components are those of G, and every
    other N_i has the empty set as a proper subset, so is not yielded.
    """
    adj = g.adj
    full = g.vertex_mask
    seen: set[int] = set()
    searched: set[int] = set()
    found: list[int] = []  # the FIFO: a list iterated while it grows
    closed = (adj[v] | 1 << v for v in range(g.order))
    expanded = (s | adj[x] for s in found for x in iter_bits(s))
    for excluded in chain(closed, expanded):
        if excluded in searched:
            continue
        searched.add(excluded)
        comps = component_neighbourhoods(adj, full & ~excluded)
        for _, s in comps:
            if s in seen:
                continue
            seen.add(s)
            found.append(s)
            if not any(nbr != s and nbr | s == s for _, nbr in comps):
                yield s, comps


def enumerate_minimal_separators(g: Graph) -> Iterator[int]:
    """Every inclusion-minimal vertex cut of a connected graph, once each, in
    the order ``_minimal_separators`` walks them; K_n has none."""
    _require_connected(g)
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
            return _make_witness(g, s, comps, kind)
    return None


def find_forest_cut(g: Graph) -> Optional[CutWitness]:
    """Separator-driven forest-cut finder, existence-equivalent to the oracle.

    The first inclusion-minimal cut inducing a forest wins; a complete graph
    gives None.  A graph with a universal vertex u takes no separate path:
    every vertex cut contains u, and the walk meets the cuts {u} + S in the
    order a walk of G - u meets its cuts S.  A graph with no forest cut costs
    one component search per distinct excluded set of the walk.  No order
    cap, but the number of minimal separators is exponential in the worst
    case; intended for the sparse instances this package targets.
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
    """Every inclusion-minimal vertex cut inducing a forest, sorted by size
    then bits; [] for K_n, which has no vertex cut."""
    _require_connected(g)
    cuts = [s for s, _ in _minimal_separators(g) if induced_is_forest(g, s)]
    cuts.sort(key=lambda s: (s.bit_count(), s))
    return cuts
