"""Exhaustive small-graph enumeration and the empirical claim checkers.

Graphs up to 8 vertices are enumerated one representative per isomorphism
class by canonical augmentation (canonical form: the least relabeled
adjacency rows over the leaves of an individualisation-refinement search
pruned by the automorphisms it finds).
Larger corpora arrive as graph6 lines, from a file or stdin, through
``graph.read_lines``.  Each claim is one row of ``CLAIMS``;
``run_check`` scans a corpus with it and reports counterexamples in canonical
graph6, so reports are identical no matter how many workers scanned it.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice, pairwise
from typing import Callable, Iterable, Iterator

from .cuts import _minimal_separators
from .graph import (
    Graph,
    _ASCII_WHITESPACE,
    induced_is_forest,
    is_connected,
    is_independent_set,
    iter_bits,
    parse_graph6,
    read_lines,
    vertex_connectivity_at_least,
    write_graph6,
)
from .lp import build_primal, check_feasible, profile_point

ENUMERATION_ORDER_CAP = 8


# ---------------------------------------------------------------------------
# canonical forms


def _refine(adj: tuple[int, ...], cells: list[int], used: Iterable[int] = ()) -> list[int]:
    """Refine ordered bit-set cells until the partition is equitable.

    The first cell not yet used as a splitter splits each cell by its
    vertices' neighbour counts in the splitter, parts ordered by count, so
    vertex names never decide the result.  A cell split by a splitter stays
    even towards it, so each cell is a splitter at most once.

    A cell of an equitable partition splits no cell of that partition, so
    none of their parts either; a caller passes such cells as ``used``, as
    using them would change nothing.  A cell whose vertices all count alike
    is kept whole, without building its parts.
    """
    used = set(used)
    while len(cells) < len(adj) and (splitter := next((c for c in cells if c not in used), 0)):
        used.add(splitter)
        split = []
        for cell in cells:
            # walk down from the top vertex while the counts agree
            v = cell.bit_length() - 1
            first = (adj[v] & splitter).bit_count()
            rest = cell ^ 1 << v
            while rest and (adj[v := rest.bit_length() - 1] & splitter).bit_count() == first:
                rest ^= 1 << v
            if not rest:
                split.append(cell)
                continue
            parts = {first: cell ^ rest}
            while rest:
                v = rest.bit_length() - 1
                k = (adj[v] & splitter).bit_count()
                parts[k] = parts.get(k, 0) | 1 << v
                rest ^= 1 << v
            split += [parts[k] for k in sorted(parts)]
        cells = split
    return cells


def _closure(mask: int, perms: list, todo: int) -> int:
    """``mask`` joined by the orbits of the points of ``todo`` under ``perms``."""
    while todo:
        x = todo.bit_length() - 1
        todo ^= 1 << x
        for p in perms:
            y = 1 << p[x]
            if not mask & y:
                mask |= y
                todo |= y
    return mask


def _children(adj: tuple[int, ...], cells: list[int], target: int, autos: list) -> Iterator[list[int]]:
    """The node's cells with one vertex of ``target`` singled out, per orbit,
    refined.  The other cells come from the node's equitable partition, so
    they start as used splitters.

    An automorphism that fixes the node's singletons maps each child to one
    with the same leaf graphs.  A vertex is skipped when such a one in the
    growing ``autos`` takes a tried one to it, or when it is a twin of one
    (same neighbours apart from each other): their swap joins ``autos``.
    """
    at = cells.index(target)
    used = cells[:at] + cells[at + 1:]
    fixed = [c.bit_length() - 1 for c in cells if not c & (c - 1)]
    tried: list[int] = []
    perms: list[list[int]] = []
    done = seen = 0
    for v in iter_bits(target):
        if seen < len(autos):
            perms += [p for p in autos[seen:] if all(p[x] == x for x in fixed)]
            done, seen = _closure(done, perms, done), len(autos)
        if done >> v & 1:
            continue
        twin = next((u for u in tried if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)), None)
        if twin is None:
            tried.append(v)
            done = _closure(done | 1 << v, perms, 1 << v)
            yield _refine(adj, cells[:at] + [1 << v, target ^ 1 << v] + cells[at + 1:], used)
        else:
            autos.append([v if x == twin else twin if x == v else x for x in range(len(adj))])


def _canonical_rows(
    adj: tuple[int, ...], root: list[int] | None = None,
) -> tuple[tuple[int, ...], list[list[int]], dict[int, int]]:
    """The least relabeled adjacency rows over the leaves of a search,
    automorphisms that generate the group of those rows, and the position in
    those rows of each vertex of ``adj``.

    The search starts from ``root``, the refined unit partition, and refines
    that itself when it is not given.  A node branches on each vertex of its
    first cell with more than one vertex, singled out in front of the rest,
    one per orbit, and refines each child (``_children``).  Two leaves with
    equal rows give the automorphism from the first one's labeling to the
    other's.  The generators are returned in canonical positions, relabeled
    through the least leaf's labeling, so they act on the returned rows
    whatever labeling ``adj`` had.
    """
    n = len(adj)
    leaves: dict[tuple[int, ...], list[int]] = {}
    autos: list[list[int]] = []
    nodes = [iter([root or _refine(adj, [(1 << n) - 1])])]
    while nodes:
        cells = next(nodes[-1], None)
        if cells is None:
            nodes.pop()
            continue
        target = next((c for c in cells if c & (c - 1)), 0)
        if target:
            nodes.append(_children(adj, cells, target, autos))
            continue
        label = [cell.bit_length() - 1 for cell in cells]
        pos = {v: i for i, v in enumerate(label)}
        rows = tuple(sum(1 << pos[u] for u in iter_bits(adj[v])) for v in label)
        first = leaves.setdefault(rows, label)
        if first is not label:
            autos.append([v for _, v in sorted(zip(first, label))])
    rows = min(leaves)
    pos = {v: i for i, v in enumerate(leaves[rows])}
    return rows, [[pos[p[v]] for v in leaves[rows]] for p in autos], pos


def canonical_form(g: Graph) -> Graph:
    """Isomorphic copy relabeled into canonical position."""
    return Graph._trusted(g.order, _canonical_rows(g.adj)[0])


def canonical_graph6(g: Graph) -> str:
    return write_graph6(canonical_form(g))


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _graph_classes(n: int) -> tuple[tuple[Graph, list[list[int]]], ...]:
    """All graphs on n vertices up to isomorphism, each with generators of its
    group in canonical positions, by canonical augmentation (McKay 1998).

    Each class P of order n - 1 gains a vertex v joined to a set S, one S per
    orbit of Aut(P) on vertex sets.  The child G = P + v is kept only when v
    lies in the Aut(G)-orbit of m(G), G's first canonical vertex of maximum
    degree.  That orbit is an isomorphism invariant, so each class of order
    n is kept exactly once:

    - At least once.  An isomorphism from G - m(G) onto a class P carries
      N(m(G)) into the orbit of an extended S, so P + v is isomorphic to G
      with v taken to m(G), and is kept.
    - At most once.  An isomorphism between kept children P + v and P' + v'
      can be chosen to take v to v', as both lie in the invariant orbit.  It
      then maps P onto P', so P = P', and S to S' by an automorphism of P,
      so S and S' are one orbit, extended once.

    The orbit of m(G) holds only vertices of maximum degree.  So a child with
    a vertex of degree above |S| = deg(v) is rejected without a search.  The
    orbit also lies in the first cell of maximum degree of the refined unit
    partition of G.  Refinement never reads vertex names, so Aut(G) maps each
    of those cells to itself.  The search only splits cells in place, so
    every leaf lists the vertices cell by cell, and m(G) lies in the first
    cell whose vertices have degree deg(m(G)).  So a child whose v is in no
    such cell is rejected without a search too, and a kept child's search
    starts from those cells.
    """
    if n == 1:
        return ((Graph._trusted(1, (0,)), []),)
    classes = []
    for g, autos in _graph_classes(n - 1):
        # the parent's vertices of degree at least j, for j = 0..n
        at_least = [sum(1 << u for u, r in enumerate(g.adj) if r.bit_count() >= j)
                    for j in range(n + 1)]
        on_sets = []  # each generator's image of every set, built bit by bit
        for p in autos:
            image = [0]
            for x in p:
                image += [y | 1 << x for y in image]
            on_sets.append(image)
        seen = 0
        for s in range(1 << g.order):
            # reject when some vertex of G has degree above k = deg(v); the
            # answer is the same on all of S's orbit, so a rejected orbit
            # need not be marked in ``seen``
            k = s.bit_count()
            if at_least[k + 1] or s & at_least[k] or seen >> s & 1:
                continue
            seen = _closure(seen | 1 << s, on_sets, 1 << s)
            child = tuple(r | (s >> v & 1) << g.order for v, r in enumerate(g.adj)) + (s,)
            root = _refine(child, [(1 << n) - 1])
            top = next(c for c in root if child[c.bit_length() - 1].bit_count() == k)
            if not top >> g.order & 1:
                continue
            rows, gens, pos = _canonical_rows(child, root)
            m = next(i for i, r in enumerate(rows) if r.bit_count() == k)
            if _closure(1 << m, gens, 1 << m) >> pos[g.order] & 1:
                classes.append((rows, gens))
    return tuple((Graph._trusted(n, rows), gens) for rows, gens in sorted(classes))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All isomorphism classes of graphs of order n (connected or not)."""
    if not 1 <= n <= ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"built-in enumeration covers 1..{ENUMERATION_ORDER_CAP}, got {n}"
        )
    yield from (g for g, _ in _graph_classes(n))


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in enumerate_graphs(n) if is_connected(g))


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per connected isomorphism class; the
    connected classes of each order are decided once, on the first call."""
    yield from _connected_classes(n)


# ---------------------------------------------------------------------------
# corpus ingestion


class Graph6Corpus:
    """Iterable over the graphs of a graph6 file, or of stdin for ``-``, read
    through ``graph.read_lines``; bad lines are recorded with their numbers."""

    def __init__(self, path: str):
        self.path = path
        self.malformed: list[tuple[int, str]] = []

    def __iter__(self) -> Iterator[Graph]:
        self.malformed = []
        for lineno, line in enumerate(read_lines(self.path), 1):
            line = line.strip(_ASCII_WHITESPACE)
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except ValueError as exc:
                self.malformed.append((lineno, str(exc)))
            else:
                yield g

    def describe(self) -> str:
        if self.malformed:
            return f"{self.path}[malformed-lines={len(self.malformed)}]"
        return self.path


def ingest_graph6(path: str) -> Graph6Corpus:
    return Graph6Corpus(path)


# ---------------------------------------------------------------------------
# densities and claims

_DENSITY_RE = re.compile(
    r"^\s*([+-]?\d+)(?:/(\d+))?\s*\*?\s*n\s*(?:([+-])\s*(\d+)(?:/(\d+))?)?\s*$",
    re.ASCII,
)


@dataclass(frozen=True)
class Density:
    """The edge bound ``c*m < a*n + b`` in integers, with c > 0."""

    a: int
    b: int
    c: int = 1

    def admits(self, n: int, m: int) -> bool:
        return self.c * m < self.a * n + self.b

    @classmethod
    def parse(cls, text: str) -> Density:
        """Parse a bound on m like ``11/5n-18/5``, ``3n-6`` or ``7/3n``."""
        match = _DENSITY_RE.match(text)
        if not match:
            raise ValueError(f"bad threshold expression {text!r}; expected a/b*n-c/d")
        slope, slope_den, sign, offset, offset_den = match.groups()
        slope_den = int(slope_den or 1)
        offset_den = int(offset_den or 1)
        if slope_den == 0 or offset_den == 0:
            raise ValueError(f"zero denominator in threshold expression {text!r}")
        c = math.lcm(slope_den, offset_den)
        b = int(offset or 0) * (c // offset_den)
        return cls(int(slope) * (c // slope_den), -b if sign == "-" else b, c)


@dataclass(frozen=True)
class Claim:
    """A row of ``CLAIMS``: every graph of order at least ``min_order``, below
    ``density`` and ``min_connectivity``-connected satisfies ``holds``, and
    any such graph that does not is a counterexample.

    A row asks for connectivity, as ``vertex_connectivity_at_least`` defines
    it, only where its source states it (``theorem1``, ``conjecture2``); the
    others ask 0, which asks nothing.  A disconnected graph is scanned but
    never flagged: the other rows walk the separators, and on it the walk
    yields the empty set alone, which is independent and a forest.
    ``flags`` calls ``holds`` only on a graph of order at least
    ``min_order`` >= 3, so ``holds`` walks the separators without the
    finders' own entry check.
    """

    density: Density
    min_order: int
    min_connectivity: int
    holds: Callable[[Graph], bool]

    def flags(self, g: Graph) -> bool:
        return (
            g.order >= self.min_order
            and self.density.admits(g.order, g.size)
            and vertex_connectivity_at_least(g, self.min_connectivity)
            and not self.holds(g)
        )


def _has_forest_cut(g: Graph) -> bool:
    return any(induced_is_forest(g, s) for s, _ in _minimal_separators(g))


def _has_independent_cut(g: Graph) -> bool:
    return any(is_independent_set(g, s) for s, _ in _minimal_separators(g))


def _every_vertex_avoidable(g: Graph) -> bool:
    """True when each vertex u misses some independent cut, in one walk.

    An independent cut avoiding u shrinks to a minimal one, so this holds
    exactly when the independent minimal separators have an empty
    intersection.  The walk stops where that intersection first empties,
    the latest of the points where a walk per vertex would stop.
    """
    common = g.vertex_mask
    for s, _ in _minimal_separators(g):
        if is_independent_set(g, s):
            common &= s
            if not common:
                return True
    return False


CLAIMS: dict[str, Claim] = {
    # Graphs with m < 3n-6 and no forest cut.
    "conjecture1": Claim(Density(3, -6), 3, 0, _has_forest_cut),
    # Graphs with m < 11n/5 - 18/5 and no forest cut (must stay empty).
    "theorem2": Claim(Density(11, -18, 5), 3, 0, _has_forest_cut),
    # Graphs with m < 2n-3 and no independent cut (must stay empty).
    "chenyu": Claim(Density(2, -3), 3, 0, _has_independent_cut),
    # 2-connected graphs with m < 2n-3 where some vertex cannot be avoided.
    "theorem1": Claim(Density(2, -3), 3, 2, _every_vertex_avoidable),
    # 3-connected, cyclic-neighborhood graphs with m < 7(n-1)/3.
    # The density target 7(n-1)/3 exceeds 3n-6 below order 6, where
    # near-complete graphs fall under it for free; the sweep starts at 6.
    "conjecture2": Claim(
        Density(7, -7, 3), 6, 3,
        lambda g: any(induced_is_forest(g, g.adj[v]) for v in range(g.order)),
    ),
}

CLAIM_NAMES = tuple(sorted(CLAIMS))


@dataclass(frozen=True)
class CheckReport:
    claim: str
    corpus: str
    scanned: int
    counterexamples: tuple[str, ...]

    def format(self) -> str:
        lines = [f"{self.claim} {self.corpus} {self.scanned} {len(self.counterexamples)}"]
        lines.extend(self.counterexamples)
        return "\n".join(lines) + "\n"


def _scan(claim: str, g: Graph) -> str:
    """The canonical graph6 of g when ``claim`` flags it, else ``""``."""
    return canonical_graph6(g) if CLAIMS[claim].flags(g) else ""


def run_check(claim: str, corpus: Iterable[Graph], description: str = "corpus",
              workers: int = 1) -> CheckReport:
    """Scan a corpus as it streams in; the report is independent of worker count."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIM_NAMES}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)  # a pool forks all its processes at once
    scan = partial(_scan, claim)
    scanned = 0
    flagged = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        if pool:
            # Executor.map submits all it is handed before it yields a result,
            # so it is handed one batch at a time: a graph and the size - 1
            # after it.  It submits them as it reads them, and pairwise makes
            # the next call while the results of this one are read.
            graphs = iter(corpus)
            size = 1024 * workers
            maps = (pool.map(scan, chain([g], islice(graphs, size - 1)), chunksize=128)
                    for g in graphs)
            results = chain.from_iterable(m for m, _ in pairwise(chain(maps, [()])))
        else:
            results = map(scan, corpus)
        for g6 in results:
            scanned += 1
            if g6:
                flagged.append(g6)
    if isinstance(corpus, Graph6Corpus):
        description = corpus.describe()
    return CheckReport(claim, description, scanned, tuple(sorted(flagged)))


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class AuditRecord:
    """How a concrete graph fares against the counting inequalities.

    These are asserted only for a hypothetical minimum counterexample, so
    failures on ordinary graphs are expected and informative, not bugs.
    ``_audit_rows`` names the ``lp.build_primal`` rows of the six row fields.
    Three of them hold on every graph and so say nothing about one:
    ``partition_row_top6`` by the definition of n_4^6' and n_4^6'', and
    ``deg6_capacity_row`` and ``high_degree_rows`` because a degree-j vertex
    has at most j degree-4 neighbours.
    """

    four_connected: bool            # no vertex cut of size 3 or less
    partition_row_deg4: bool
    partition_row_top6: bool
    weighted_degree_row: bool
    deg5_capacity_row: bool
    deg6_capacity_row: bool
    high_degree_rows: bool          # every deg{j}-capacity row for j >= 7
    neighborhood_degree_sums: bool  # degree-4 vertices have d_G(N(u)) >= 19
    max_two_degree4_neighbors: bool  # degree-4 vertices: at most two degree-4 neighbors
    degree5_not_all_degree4: bool   # degree-5 vertices: some neighbor of degree != 4


def _audit_rows(n: int) -> dict[str, tuple[str, ...]]:
    # the build_primal(n) rows behind each row field of AuditRecord
    return {
        "partition_row_deg4": ("deg4-partition",),
        "partition_row_top6": ("deg4-top6-split",),
        "weighted_degree_row": ("weighted-degree",),
        "deg5_capacity_row": ("deg5-capacity",),
        "deg6_capacity_row": ("deg6-capacity",),
        "high_degree_rows": tuple(f"deg{j}-capacity" for j in range(7, n)),
    }


def audit_claim_inequalities(g: Graph) -> AuditRecord:
    """Evaluate the counting inequalities and the local claims on one graph.

    The row fields are the rows of ``lp.build_primal(max(n, 8))`` at
    ``lp.profile_point(g)``; below order 8 the padding rows read 0 >= 0.
    """
    n = g.order
    size = max(n, 8)
    report = check_feasible(build_primal(size), profile_point(g))
    satisfied = {r.row_id: r.satisfied for r in report.rows}
    rows = {name: all(satisfied[r] for r in ids) for name, ids in _audit_rows(size).items()}
    degs = [g.degree(v) for v in range(n)]
    nbhd_sums_ok = all(
        sum(degs[u] for u in g.neighbors(v)) >= 19 for v in range(n) if degs[v] == 4
    )
    claim4_ok = all(
        sum(1 for u in g.neighbors(v) if degs[u] == 4) <= 2
        for v in range(n)
        if degs[v] == 4
    )
    claim3_ok = all(
        any(degs[u] != 4 for u in g.neighbors(v))
        for v in range(n)
        if degs[v] == 5
    )
    return AuditRecord(
        four_connected=vertex_connectivity_at_least(g, 4),
        **rows,
        neighborhood_degree_sums=nbhd_sums_ok,
        max_two_degree4_neighbors=claim4_ok,
        degree5_not_all_degree4=claim3_ok,
    )
