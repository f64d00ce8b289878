"""Exhaustive small-graph enumeration and the empirical claim checkers.

Graphs up to 7 vertices are enumerated one representative per isomorphism
class (canonical form: minimum adjacency bit string over all labelings
compatible with an iterated degree refinement).  Larger corpora arrive as
graph6 files.  Each claim is one row of ``CLAIMS``; ``run_check`` scans a
corpus with it and reports counterexamples in canonical graph6, so reports
are identical no matter how many workers scanned the corpus.
"""

from __future__ import annotations

import itertools
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Callable, Iterable, Iterator

from .cuts import find_forest_cut, find_independent_cut, find_independent_cut_avoiding
from .graph import (
    Graph,
    add_vertex,
    degree_profile,
    degree_sum,
    induced_is_forest,
    is_connected,
    iter_bits,
    parse_graph6,
    vertex_connectivity_at_least,
    write_graph6,
)

ENUMERATION_ORDER_CAP = 7


# ---------------------------------------------------------------------------
# canonical forms


def _refined_ranks(g: Graph) -> list[int]:
    """Iterated neighbor-degree refinement; equal ranks may still be swappable."""
    inv = [g.degree(v) for v in range(g.order)]
    for _ in range(g.order):
        keys = [
            (inv[v], tuple(sorted(inv[u] for u in g.neighbors(v))))
            for v in range(g.order)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == inv:
            break
        inv = new
    return inv


def _canonicalize(g: Graph) -> tuple[tuple[int, int], tuple[int, ...]]:
    """Canonical key (order, min bit string) and the labeling that attains it.

    Only labelings that keep refinement classes in rank order are tried,
    which is sound because no isomorphism can move a vertex across classes.
    Exponential only in the sizes of the residual classes, so this is meant
    for the small orders the enumerator and the reports deal with.
    """
    n = g.order
    ranks = _refined_ranks(g)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(ranks[v], []).append(v)
    parts = [classes[r] for r in sorted(classes)]
    adj = g.adj
    best_bits = None
    best_label = None
    for combo in itertools.product(*(itertools.permutations(p) for p in parts)):
        label = [v for part in combo for v in part]
        bits = 0
        for i in range(n):
            row = adj[label[i]]
            for j in range(i + 1, n):
                bits = bits << 1 | (row >> label[j] & 1)
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_label = tuple(label)
    return (n, best_bits), best_label


def _relabel(g: Graph, label: tuple[int, ...]) -> Graph:
    """Copy of g in which vertex label[i] becomes vertex i."""
    pos = {v: i for i, v in enumerate(label)}
    adj = [0] * g.order
    for v in range(g.order):
        for u in iter_bits(g.adj[v]):
            adj[pos[v]] |= 1 << pos[u]
    return Graph(g.order, adj)


def canonical_form(g: Graph) -> Graph:
    """Isomorphic copy relabeled into canonical position."""
    return _relabel(g, _canonicalize(g)[1])


def canonical_graph6(g: Graph) -> str:
    return write_graph6(canonical_form(g))


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _graph_classes(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, grown one vertex at a time."""
    if n == 1:
        return (Graph(1, (0,)),)
    out: dict[tuple[int, int], Graph] = {}
    for g in _graph_classes(n - 1):
        for s in range(1 << (n - 1)):
            h = add_vertex(g, s)
            key, label = _canonicalize(h)
            if key not in out:
                out[key] = _relabel(h, label)
    return tuple(out[k] for k in sorted(out))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All isomorphism classes of graphs of order n (connected or not)."""
    if not 1 <= n <= ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"built-in enumeration covers 1..{ENUMERATION_ORDER_CAP}, got {n}"
        )
    yield from _graph_classes(n)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per connected isomorphism class."""
    for g in enumerate_graphs(n):
        if is_connected(g):
            yield g


# ---------------------------------------------------------------------------
# corpus ingestion


class Graph6Corpus:
    """Iterable over the graphs of a graph6 file; bad lines are recorded."""

    def __init__(self, path: str):
        self.path = path
        self.malformed: list[tuple[int, str]] = []

    def __iter__(self) -> Iterator[Graph]:
        self.malformed = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
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
    r"^\s*([+-]?\d+)(?:/(\d+))?\s*\*?\s*n\s*(?:([+-])\s*(\d+)(?:/(\d+))?)?\s*$"
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


def sparse_k_connected(g: Graph, density: Density | None, k: int) -> bool:
    """True when g is below ``density`` (if one is given) and k-connected.

    k-connected means more than k vertices and no vertex cut of fewer than
    k vertices; k = 0 asks nothing, so disconnected graphs pass it.
    """
    if k < 0:
        raise ValueError(f"connectivity must be at least 0, got {k}")
    if density is not None and not density.admits(g.order, g.size):
        return False
    return not k or (g.order > k and is_connected(g) and vertex_connectivity_at_least(g, k))


@dataclass(frozen=True)
class Claim:
    """A row of ``CLAIMS``: every graph of order at least ``min_order``, below
    ``density`` and ``min_connectivity``-connected satisfies ``holds``, and
    any such graph that does not is a counterexample.

    Every row asks for at least connectivity 1.  A disconnected graph is
    scanned but never flagged, because the empty set separates it and is both
    independent and a forest.
    """

    density: Density
    min_order: int
    min_connectivity: int
    holds: Callable[[Graph], bool]

    def flags(self, g: Graph) -> bool:
        return (
            g.order >= self.min_order
            and sparse_k_connected(g, self.density, self.min_connectivity)
            and not self.holds(g)
        )


CLAIMS: dict[str, Claim] = {
    # Graphs with m < 3n-6 and no forest cut.
    "conjecture1": Claim(Density(3, -6), 3, 1, lambda g: find_forest_cut(g) is not None),
    # Graphs with m < 11n/5 - 18/5 and no forest cut (must stay empty).
    "theorem2": Claim(Density(11, -18, 5), 3, 1, lambda g: find_forest_cut(g) is not None),
    # Graphs with m < 2n-3 and no independent cut (must stay empty).
    "chenyu": Claim(Density(2, -3), 3, 1, lambda g: find_independent_cut(g) is not None),
    # 2-connected graphs with m < 2n-3 where some vertex cannot be avoided.
    "theorem1": Claim(
        Density(2, -3), 3, 2,
        lambda g: all(find_independent_cut_avoiding(g, u) is not None for u in range(g.order)),
    ),
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
    elapsed: float = field(compare=False, default=0.0)

    def format(self) -> str:
        lines = [f"{self.claim} {self.corpus} {self.scanned} {len(self.counterexamples)}"]
        lines.extend(self.counterexamples)
        return "\n".join(lines) + "\n"


def _scan_chunk(args: tuple[str, list[Graph]]) -> list[str]:
    claim, graphs = args
    flags = CLAIMS[claim].flags
    return [canonical_graph6(g) for g in graphs if flags(g)]


def run_check(claim: str, corpus: Iterable[Graph], description: str = "corpus",
              workers: int = 1) -> CheckReport:
    """Scan a corpus for counterexamples; result independent of worker count."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIM_NAMES}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    graphs = list(corpus)
    if isinstance(corpus, Graph6Corpus):
        description = corpus.describe()
    start = perf_counter()
    if workers <= 1 or len(graphs) < 2 * workers:
        flagged = _scan_chunk((claim, graphs))
    else:
        step = (len(graphs) + workers - 1) // workers
        chunks = [graphs[i:i + step] for i in range(0, len(graphs), step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, [(claim, c) for c in chunks]))
        flagged = [g6 for part in parts for g6 in part]
    flagged.sort()
    return CheckReport(claim, description, len(graphs), tuple(flagged),
                       perf_counter() - start)


# ---------------------------------------------------------------------------
# census and audit


def figure1_census(n: int) -> list[Graph]:
    """All 3-connected graphs of order n in {6, 7} with m < 11n/5 - 18/5."""
    if n not in (6, 7):
        raise ValueError(f"census is defined for n in {{6, 7}}, got {n}")
    theorem2 = CLAIMS["theorem2"].density
    return [g for g in enumerate_connected_graphs(n) if sparse_k_connected(g, theorem2, 3)]


@dataclass(frozen=True)
class AuditRecord:
    """How a concrete graph fares against the counting inequalities.

    These are asserted only for a hypothetical minimum counterexample, so
    failures on ordinary graphs are expected and informative, not bugs.
    """

    four_connected: bool            # no vertex cut of size 3 or less
    partition_row_deg4: bool        # n_4 equals the sum of the n_4^j
    partition_row_top6: bool        # n_4^6 splits into the primed counts
    weighted_degree_row: bool       # sum_j j*n_j >= 2*n_4
    deg5_capacity_row: bool         # 4*n_5 >= 3*n_4^5 + n_4^6'
    deg6_capacity_row: bool         # 6*n_6 >= n_4^6' + 2*n_4^6''
    high_degree_rows: bool          # j*n_j >= n_4^j for every j >= 7
    neighborhood_degree_sums: bool  # degree-4 vertices have d_G(N(u)) >= 19
    max_two_degree4_neighbors: bool  # degree-4 vertices: at most two degree-4 neighbors
    degree5_not_all_degree4: bool   # degree-5 vertices: some neighbor of degree != 4


def audit_claim_inequalities(g: Graph) -> AuditRecord:
    profile = degree_profile(g)
    n = g.order
    n4 = profile.count_degree(4)
    split_total = sum(profile.n_4_j.values())
    weighted = sum(j * profile.n_i.get(j, 0) for j in range(5, n))
    degs = [g.degree(v) for v in range(n)]
    nbhd_sums_ok = all(
        degree_sum(g, g.adj[v]) >= 19 for v in range(n) if degs[v] == 4
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
    four_connected = sparse_k_connected(g, None, 4)
    return AuditRecord(
        four_connected=four_connected,
        partition_row_deg4=profile.partition_valid and n4 == split_total,
        partition_row_top6=profile.n_4_j.get(6, 0)
        == profile.n_4_6_prime + profile.n_4_6_doubleprime,
        weighted_degree_row=weighted >= 2 * n4,
        deg5_capacity_row=4 * profile.count_degree(5)
        >= 3 * profile.n_4_j.get(5, 0) + profile.n_4_6_prime,
        deg6_capacity_row=6 * profile.count_degree(6)
        >= profile.n_4_6_prime + 2 * profile.n_4_6_doubleprime,
        high_degree_rows=all(
            j * profile.n_i.get(j, 0) >= profile.n_4_j.get(j, 0)
            for j in range(7, n)
        ),
        neighborhood_degree_sums=nbhd_sums_ok,
        max_two_degree4_neighbors=claim4_ok,
        degree5_not_all_degree4=claim3_ok,
    )
