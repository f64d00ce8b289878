"""The degree-profile linear program, its dual, and exact certificates.

Everything here runs on fractions.Fraction: the certificate values have
denominators like 70, and the whole point of this module is that no
floating-point rounding can creep into a feasibility or optimality claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

ZERO = Fraction(0)


class LpRow(NamedTuple):
    row_id: str
    coeffs: dict[str, Fraction]
    relation: str  # "=", "<=", or ">="
    rhs: Fraction


@dataclass(frozen=True)
class LpInstance:
    name: str
    sense: str  # "min" or "max"
    variables: tuple[str, ...]
    objective: dict[str, Fraction]
    rows: tuple[LpRow, ...]
    nonnegative: frozenset[str]

    def __post_init__(self):
        declared = frozenset(self.variables)
        if not declared.issuperset(self.objective):
            raise ValueError("objective references undeclared variables")
        for r in self.rows:
            if not declared.issuperset(r.coeffs):
                raise ValueError(f"row {r.row_id!r} references undeclared variables")


def _primal_variables(n: int) -> tuple[list[str], list[str]]:
    deg_vars = [f"n_{i}" for i in range(4, n)]
    split_vars = [f"n_4^{j}" for j in range(5, n)]
    return deg_vars, split_vars


def build_primal(n: int) -> LpInstance:
    """Minimum edge count over degree profiles with the five count constraints."""
    if n < 8:
        raise ValueError(f"the program needs n >= 8, got {n}")
    deg_vars, split_vars = _primal_variables(n)
    variables = tuple(deg_vars + split_vars + ["n_4^6'", "n_4^6''"])
    objective = {f"n_{i}": Fraction(i, 2) for i in range(4, n)}
    rows = [
        LpRow("vertex-count", {v: Fraction(1) for v in deg_vars}, "=", Fraction(n)),
        LpRow(
            "deg4-partition",
            {"n_4": Fraction(1), **{v: Fraction(-1) for v in split_vars}},
            "=",
            ZERO,
        ),
        LpRow(
            "deg4-top6-split",
            {"n_4^6": Fraction(1), "n_4^6'": Fraction(-1), "n_4^6''": Fraction(-1)},
            "=",
            ZERO,
        ),
        LpRow(
            "weighted-degree",
            {**{f"n_{j}": Fraction(j) for j in range(5, n)}, "n_4": Fraction(-2)},
            ">=",
            ZERO,
        ),
        LpRow(
            "deg5-capacity",
            {"n_5": Fraction(4), "n_4^5": Fraction(-3), "n_4^6'": Fraction(-1)},
            ">=",
            ZERO,
        ),
        LpRow(
            "deg6-capacity",
            {"n_6": Fraction(6), "n_4^6'": Fraction(-1), "n_4^6''": Fraction(-2)},
            ">=",
            ZERO,
        ),
    ]
    for j in range(7, n):
        rows.append(
            LpRow(
                f"deg{j}-capacity",
                {f"n_{j}": Fraction(j), f"n_4^{j}": Fraction(-1)},
                ">=",
                ZERO,
            )
        )
    return LpInstance(
        name=f"profile-primal-{n}",
        sense="min",
        variables=variables,
        objective=objective,
        rows=tuple(rows),
        nonnegative=frozenset(variables),
    )


@lru_cache(maxsize=None)
def _dual_degree_row(j: int) -> LpRow:
    one = Fraction(1)
    return LpRow(
        f"n_{j}", {"x_1": one, "x_4": Fraction(j), f"y_{j}": Fraction(j)}, "<=", Fraction(j, 2)
    )


@lru_cache(maxsize=None)
def _dual_split_row(j: int) -> LpRow:
    neg = Fraction(-1)
    return LpRow(f"n_4^{j}", {"x_2": neg, f"y_{j}": neg}, "<=", ZERO)


def build_dual(n: int) -> LpInstance:
    """The dual program, transcribed directly; row ids name the primal variable."""
    if n < 8:
        raise ValueError(f"the program needs n >= 8, got {n}")
    variables = tuple(
        ["x_1", "x_2", "x_3", "x_4"] + [f"y_{j}" for j in range(5, n)]
    )
    one = Fraction(1)
    neg = Fraction(-1)
    rows = [
        LpRow("n_4", {"x_1": one, "x_2": one, "x_4": Fraction(-2)}, "<=", Fraction(2)),
        LpRow("n_5", {"x_1": one, "x_4": Fraction(5), "y_5": Fraction(4)}, "<=", Fraction(5, 2)),
        LpRow("n_6", {"x_1": one, "x_4": Fraction(6), "y_6": Fraction(6)}, "<=", Fraction(3)),
    ]
    rows.extend(_dual_degree_row(j) for j in range(7, n))
    rows.append(LpRow("n_4^5", {"x_2": neg, "y_5": Fraction(-3)}, "<=", ZERO))
    rows.append(LpRow("n_4^6", {"x_2": neg, "x_3": one}, "<=", ZERO))
    rows.extend(_dual_split_row(j) for j in range(7, n))
    rows.append(
        LpRow("n_4^6'", {"y_5": neg, "y_6": neg, "x_3": neg}, "<=", ZERO)
    )
    rows.append(LpRow("n_4^6''", {"y_6": Fraction(-2), "x_3": neg}, "<=", ZERO))
    return LpInstance(
        name=f"profile-dual-{n}",
        sense="max",
        variables=variables,
        objective={"x_1": Fraction(n)},
        rows=tuple(rows),
        nonnegative=frozenset({"x_4"} | {f"y_{j}" for j in range(5, n)}),
    )


def mechanical_dual(primal: LpInstance, dual_names: Mapping[str, str]) -> LpInstance:
    """Dualize a min program with nonnegative variables and =/>= rows.

    ``dual_names`` maps each primal row id to the dual variable name.  The
    result has one <= row per primal variable, keyed by that variable, so a
    transcription of the dual can be compared row for row.
    """
    assert primal.sense == "min"
    assert primal.nonnegative == frozenset(primal.variables)
    dual_vars = tuple(dual_names[r.row_id] for r in primal.rows)
    nonneg = frozenset(
        dual_names[r.row_id] for r in primal.rows if r.relation == ">="
    )
    objective = {
        dual_names[r.row_id]: r.rhs for r in primal.rows if r.rhs != 0
    }
    rows = []
    for v in primal.variables:
        coeffs = {}
        for r in primal.rows:
            c = r.coeffs.get(v)
            if c:
                coeffs[dual_names[r.row_id]] = c
        rows.append(LpRow(v, coeffs, "<=", primal.objective.get(v, ZERO)))
    return LpInstance(
        name=primal.name + "-dualized",
        sense="max",
        variables=dual_vars,
        objective=objective,
        rows=tuple(rows),
        nonnegative=nonneg,
    )


@dataclass(frozen=True)
class DualPoint:
    """Candidate dual solution: the x block plus y_j for 5 <= j <= n-1."""

    x1: Fraction
    x2: Fraction
    x3: Fraction
    x4: Fraction
    y: dict[int, Fraction]

    def assignment(self) -> dict[str, Fraction]:
        out = {"x_1": self.x1, "x_2": self.x2, "x_3": self.x3, "x_4": self.x4}
        for j, val in self.y.items():
            out[f"y_{j}"] = val
        return out


def certificate_dual_point(n: int) -> DualPoint:
    """The explicit feasible dual certificate with objective 11n/5."""
    if n < 8:
        raise ValueError(f"the certificate is defined for n >= 8, got {n}")
    y = {5: Fraction(2, 35), 6: Fraction(4, 35)}
    for j in range(7, n):
        y[j] = Fraction(6, 35)
    return DualPoint(
        x1=Fraction(11, 5),
        x2=Fraction(-6, 35),
        x3=Fraction(-6, 35),
        x4=Fraction(1, 70),
        y=y,
    )


class RowCheck(NamedTuple):
    row_id: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    slack: Fraction
    satisfied: bool


@dataclass(frozen=True)
class FeasibilityReport:
    rows: tuple[RowCheck, ...]
    bound_violations: tuple[str, ...] = field(default=())

    @property
    def feasible(self) -> bool:
        return not self.bound_violations and all(r.satisfied for r in self.rows)

    def row(self, row_id: str) -> RowCheck:
        for r in self.rows:
            if r.row_id == row_id:
                return r
        raise KeyError(row_id)


def check_feasible(instance: LpInstance, point: Mapping[str, Fraction]) -> FeasibilityReport:
    """Evaluate every row and sign bound exactly; no floating point.

    Rows are accumulated over integers with one normalization per output
    value; per-term Fraction operators would dominate the 8..1000
    certificate sweeps.
    """
    for v in instance.variables:
        if v not in point:
            raise ValueError(f"point is missing variable {v!r}")
    checks = []
    for r in instance.rows:
        num = 0
        den = 1
        for v, c in r.coeffs.items():
            p = point[v]
            term_num = c.numerator * p.numerator
            term_den = c.denominator * p.denominator
            num = num * term_den + term_num * den
            den *= term_den
        rhs = r.rhs
        diff_num = rhs.numerator * den - num * rhs.denominator
        diff_den = den * rhs.denominator
        relation = r.relation
        if relation == "<=":
            slack = Fraction(diff_num, diff_den)
            ok = diff_num >= 0
        elif relation == ">=":
            slack = Fraction(-diff_num, diff_den)
            ok = diff_num <= 0
        else:
            slack = Fraction(diff_num, diff_den)
            ok = diff_num == 0
        checks.append(RowCheck(r.row_id, Fraction(num, den), relation, rhs, slack, ok))
    bad_bounds = tuple(
        v for v in instance.variables if v in instance.nonnegative and point[v] < 0
    )
    return FeasibilityReport(tuple(checks), bad_bounds)


def objective_value(instance: LpInstance, point: Mapping[str, Fraction]) -> Fraction:
    return sum((c * point[v] for v, c in instance.objective.items()), ZERO)


def weak_duality_bound(n: int, point: DualPoint) -> Fraction:
    """Certified lower bound n*x1 on the primal optimum, after a feasibility check."""
    report = check_feasible(build_dual(n), point.assignment())
    if not report.feasible:
        bad = [r.row_id for r in report.rows if not r.satisfied]
        bad.extend(report.bound_violations)
        raise ValueError(f"certificate violates {bad}")
    return Fraction(n) * point.x1


# ---------------------------------------------------------------------------
# exact primal solve: dense two-phase simplex, Bland's least-index rule


def solve_primal_exact(n: int) -> Fraction:
    """Exact optimum of the primal program; stays at or above 11n/5."""
    if n < 8:
        raise ValueError(f"the program needs n >= 8, got {n}")
    if n > 64:
        raise ValueError(f"exact solve is sized for n <= 64, got {n}")
    return solve_min_exact(build_primal(n))


def solve_min_exact(instance: LpInstance) -> Fraction:
    """Minimize a program whose variables are all sign-restricted."""
    assert instance.sense == "min"
    assert instance.nonnegative == frozenset(instance.variables)
    index = {v: i for i, v in enumerate(instance.variables)}
    nvars = len(instance.variables)
    slack_rows = [r for r in instance.rows if r.relation in ("<=", ">=")]
    total = nvars + len(slack_rows)
    m = len(instance.rows)

    body = []
    rhs = []
    slack_at = 0
    for r in instance.rows:
        dense = [ZERO] * total
        for v, c in r.coeffs.items():
            dense[index[v]] = c
        if r.relation == "<=":
            dense[nvars + slack_at] = Fraction(1)
            slack_at += 1
        elif r.relation == ">=":
            dense[nvars + slack_at] = Fraction(-1)
            slack_at += 1
        b = r.rhs
        if b < 0:
            dense = [-a for a in dense]
            b = -b
        body.append(dense)
        rhs.append(b)

    # phase 1: artificial basis
    tableau = []
    for i in range(m):
        tableau.append(
            body[i] + [Fraction(1) if k == i else ZERO for k in range(m)] + [rhs[i]]
        )
    basis = [total + i for i in range(m)]
    cost1 = [ZERO] * total + [Fraction(1)] * m
    _append_objective(tableau, basis, cost1)
    _run_bland(tableau, basis, total + m)
    if -tableau[-1][-1] != 0:
        raise ValueError("phase 1 ended positive: instance infeasible")

    # pivot artificials out of the basis, dropping redundant rows
    tableau.pop()
    keep = []
    for i in range(len(basis)):
        if basis[i] < total:
            keep.append(i)
            continue
        col = next((j for j in range(total) if tableau[i][j] != 0), None)
        if col is None:
            continue  # all-zero row: redundant constraint
        _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:total] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cost2 = [instance.objective.get(v, ZERO) for v in instance.variables]
    cost2 += [ZERO] * (total - nvars)
    _append_objective(tableau, basis, cost2)
    _run_bland(tableau, basis, total)
    return -tableau[-1][-1]


def _append_objective(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> None:
    width = len(tableau[0]) - 1
    obj = [cost[j] if j < len(cost) else ZERO for j in range(width)] + [ZERO]
    for i, bvar in enumerate(basis):
        c = cost[bvar] if bvar < len(cost) else ZERO
        if c:
            obj = [a - c * b for a, b in zip(obj, tableau[i])]
    tableau.append(obj)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [a / piv for a in tableau[row]]
    for i in range(len(tableau)):
        if i == row:
            continue
        f = tableau[i][col]
        if f:
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    if row < len(basis):
        basis[row] = col


def _run_bland(tableau: list[list[Fraction]], basis: list[int], width: int) -> None:
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        col = next((j for j in range(width) if obj[j] < 0), None)
        if col is None:
            return
        pick = None
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pick]):
                    best = ratio
                    pick = i
        if pick is None:
            raise ValueError("column with no positive entry: unbounded")
        _pivot(tableau, basis, pick, col)
