"""Seeded inputs for the benchmark workloads.

Every input is rebuilt from ``(seed, scale)``; nothing is read from disk.
``scale`` shrinks the inputs for the smoke test and is 1 for every
measured run.  The generators use only the standard library, so the inputs
do not depend on the code under test.
"""

from __future__ import annotations

import random

CORPUS_GRAPHS = 4000
CORPUS_ORDERS = (10, 24)
CORPUS_BELOW_SHARE = 0.75

LP_CERTIFY_N = (8, 1000)
LP_SOLVE_N = tuple(range(8, 65, 8))

STACKED_ORDERS = tuple(range(40, 101, 6))
GK_K = tuple(range(5, 16, 2))
BAND_N = (30, 60, 90, 120)
CDU_K = (10, 20, 30)

CLAIMS = ("chenyu", "conjecture1", "conjecture2", "theorem1", "theorem2")


def _shrink(values: tuple, scale: float) -> list:
    return list(values[:max(1, round(len(values) * scale))])


def graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """Short-form graph6: upper triangle column by column, six bits a byte."""
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def _random_connected(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """A random recursive tree on n vertices plus m - (n - 1) random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return edges


def corpus_lines(seed: int, scale: float = 1.0) -> list[str]:
    """graph6 lines around the theorem-2 density threshold 5m < 11n - 18.

    About three quarters take the largest m below the threshold, so the
    finder runs on them; the rest take the smallest m at or above it and
    stop at the density filter.
    """
    rng = random.Random(seed)
    lo, hi = CORPUS_ORDERS
    lines = []
    for _ in range(max(20, round(CORPUS_GRAPHS * scale))):
        n = rng.randint(lo, hi)
        limit = 11 * n - 18
        m = (limit - 1) // 5 if rng.random() < CORPUS_BELOW_SHARE else -(-limit // 5)
        lines.append(graph6(n, _random_connected(rng, n, m)))
    return lines


def builtin_spec(seed: int, scale: float = 1.0) -> dict:
    """The five claims over all connected 7-vertex graphs, in seeded order."""
    claims = list(CLAIMS)
    random.Random(seed).shuffle(claims)
    return {"claims": claims}


def lp_spec(seed: int, scale: float = 1.0) -> dict:
    """Criterion 2's n range and the primal solves, in seeded order.

    The n values are fixed by the sweep itself; the seed only orders them.
    """
    rng = random.Random(seed)
    lo, hi = LP_CERTIFY_N
    certify = list(range(lo, lo + max(8, round((hi - lo) * scale)) + 1))
    solve = _shrink(LP_SOLVE_N, scale)
    rng.shuffle(certify)
    rng.shuffle(solve)
    return {"certify": certify, "solve": solve}


def families_spec(seed: int, scale: float = 1.0) -> dict:
    """Stacked triangulations at fixed orders with seeded shapes, plus the
    extremal families G_k, band and cdu at fixed sizes."""
    rng = random.Random(seed)
    stacked = [
        {"n": n, "seed": rng.randrange(1 << 31), "edge_picks": [rng.random() for _ in range(4)]}
        for n in _shrink(STACKED_ORDERS, scale)
    ]
    band = [{"n": n, "c": rng.randint(3, n - 4)} for n in _shrink(BAND_N, scale)]
    return {
        "stacked": stacked,
        "gk": _shrink(GK_K, scale),
        "band": band,
        "cdu": _shrink(CDU_K, scale),
    }
