"""The degree-profile linear program, its dual, and exact certificates.

build_primal is the one place the paper's counting inequalities are
written; profile_point reads a graph's degree counts as a point of it.
The optimum 11n/5 is proved by two certificates rather than solved for:
primal_optimum_point is a feasible primal point and certificate_dual_point
a feasible dual point, and their objectives are equal.

Everything here is exact rational arithmetic: the certificate values have
denominators like 70, and the whole point of this module is that no
floating-point rounding can creep into a feasibility or optimality claim.
Programs hold Fractions or ints; points hold Fractions or ints.  Each LpRow
is compiled to integers once, when it is built: a common denominator, the
coefficients scaled by it, and the scaled rhs.  check_feasible scales the
point once to a common denominator, so every row costs one integer
multiply-add per term, and it decides every row before it returns.  The
report keeps the program's rows and one scaled lhs per row; its rows is a
sequence view that builds a row's RowCheck each time the row is read:
``(row_id, relation, lhs, rhs, slack, satisfied)``, with exact Fraction
sides and slack.

The dual is built once per process, not once per n.  Its rows that every n
has are module constants, and its y_j names, n_j rows and n_4^j rows are
kept in shared tables that grow to the largest n asked for; build_dual(n)
joins the constants with a prefix of each table.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm
from operator import index, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .graph import Graph

ZERO = Fraction(0)
ONE = Fraction(1)
NEG_ONE = Fraction(-1)


@dataclass(frozen=True, slots=True)
class LpRow:
    """One row ``sum(coeffs[v] * v) <relation> rhs`` and its integer form.

    coeffs is stored as a read-only view, so the integer form, computed once
    here, cannot go stale: den is the least common denominator of the
    coefficients and the rhs, terms pairs each variable with its coefficient
    times den, and rhs_num is the rhs times den.
    """

    row_id: str
    coeffs: Mapping[str, Fraction]
    relation: str  # "=", "<=", or ">="
    rhs: Fraction
    den: int = field(init=False, compare=False, repr=False)
    terms: tuple[tuple[str, int], ...] = field(init=False, compare=False, repr=False)
    rhs_num: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.relation not in ("=", "<=", ">="):
            raise ValueError(f"row {self.row_id!r} has relation {self.relation!r}; use '=', '<=' or '>='")
        coeffs = MappingProxyType(dict(self.coeffs))
        values = [self.rhs, *coeffs.values()]
        bad = [c for c in values if not isinstance(c, (int, Fraction))]
        if bad:
            raise ValueError(
                f"row {self.row_id!r} holds {bad[0]!r}; coefficients and rhs must be ints or Fractions"
            )
        den = lcm(*[c.denominator for c in values])
        terms = tuple((v, c.numerator * (den // c.denominator)) for v, c in coeffs.items())
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "rhs_num", self.rhs.numerator * (den // self.rhs.denominator))

    def __reduce__(self):  # a mappingproxy cannot be pickled or copied
        return LpRow, (self.row_id, dict(self.coeffs), self.relation, self.rhs)


@dataclass(frozen=True)
class LpInstance:
    """A program; its sense, objective, rows and sign bounds use only its variables."""

    name: str
    sense: str  # "min" or "max"
    variables: tuple[str, ...]
    objective: dict[str, Fraction]
    rows: tuple[LpRow, ...]
    nonnegative: frozenset[str]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense {self.sense!r}; use 'min' or 'max'")
        declared = frozenset(self.variables)
        if not declared.issuperset(self.objective):
            raise ValueError("objective references undeclared variables")
        bad = next((r for r in self.rows if not declared.issuperset(r.coeffs)), None)
        if bad is not None:
            raise ValueError(f"row {bad.row_id!r} references undeclared variables")
        if not declared.issuperset(self.nonnegative):
            raise ValueError(f"nonnegative variable {min(self.nonnegative - declared)!r} is not declared")


# The programs grow linearly in n: lp --n 10000 takes about 0.45 s and 36 MB
# peak RSS (CPython 3.11 on a 2-core machine), so a much larger n could
# exhaust memory.
_MAX_N = 10_000


def _check_order(n: int, what: str) -> None:
    """Refuse an order outside 8.._MAX_N; ``what`` opens the message."""
    if n < 8:
        raise ValueError(f"{what} n >= 8, got {n}")
    if n > _MAX_N:
        raise ValueError(f"{what} n <= {_MAX_N}, got {n}")


def _primal_variables(n: int) -> tuple[str, ...]:
    """n_4..n_{n-1}, then n_4^5..n_4^{n-1}, then n_4^6' and n_4^6''."""
    splits = [f"n_4^{j}" for j in range(5, n)]
    return (*[f"n_{i}" for i in range(4, n)], *splits, "n_4^6'", "n_4^6''")


def build_primal(n: int) -> LpInstance:
    """Minimum edge count over degree profiles with the five count constraints."""
    _check_order(n, "the program needs")
    variables = _primal_variables(n)
    deg_vars, split_vars = variables[: n - 4], variables[n - 4 : -2]
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


def profile_point(g: Graph) -> dict[str, int]:
    """The degree profile of g as a point of ``build_primal(max(g.order, 8))``.

    ``n_i`` counts the vertices of degree i >= 4, ``n_4^j`` the degree-4
    vertices whose highest neighbour degree is j, and ``n_4^6'`` and
    ``n_4^6''`` split ``n_4^6`` by whether one or several neighbours have
    degree 6.  A degree-4 vertex with no neighbour of degree 5 or more counts
    in ``n_4`` only, so the point fails the ``deg4-partition`` row.
    """
    point = dict.fromkeys(_primal_variables(max(g.order, 8)), 0)
    degs = [g.degree(v) for v in range(g.order)]
    for v, d in enumerate(degs):
        if d < 4:
            continue
        point[f"n_{d}"] += 1
        if d == 4:
            nbr_degs = [degs[u] for u in g.neighbors(v)]
            top = max(nbr_degs)
            if top >= 5:
                point[f"n_4^{top}"] += 1
            if top == 6:
                point["n_4^6'" if nbr_degs.count(6) == 1 else "n_4^6''"] += 1
    return point


# Cached because formatting a name costs more than the lookup, and so that
# the rows, the dual's variables and a DualPoint's assignment share one
# string per name.
@lru_cache(maxsize=None)
def _y_name(j: int) -> str:
    """The dual variable of ``deg{j}-capacity``."""
    return f"y_{j}"


def _dual_degree_row(j: int) -> LpRow:
    coeff = Fraction(j)
    return LpRow(f"n_{j}", {"x_1": ONE, "x_4": coeff, _y_name(j): coeff}, "<=", Fraction(j, 2))


def _dual_split_row(j: int) -> LpRow:
    return LpRow(f"n_4^{j}", {"x_2": NEG_ONE, _y_name(j): NEG_ONE}, "<=", ZERO)


# The dual's rows that every n has, in three runs that the per-j rows separate.
_DUAL_HEAD = (
    LpRow("n_4", {"x_1": ONE, "x_2": ONE, "x_4": Fraction(-2)}, "<=", Fraction(2)),
    LpRow("n_5", {"x_1": ONE, "x_4": Fraction(5), _y_name(5): Fraction(4)}, "<=", Fraction(5, 2)),
)
_DUAL_MIDDLE = (
    LpRow("n_4^5", {"x_2": NEG_ONE, _y_name(5): Fraction(-3)}, "<=", ZERO),
    LpRow("n_4^6", {"x_2": NEG_ONE, "x_3": ONE}, "<=", ZERO),
)
_DUAL_TAIL = (
    LpRow("n_4^6'", {_y_name(5): NEG_ONE, _y_name(6): NEG_ONE, "x_3": NEG_ONE}, "<=", ZERO),
    LpRow("n_4^6''", {_y_name(6): Fraction(-2), "x_3": NEG_ONE}, "<=", ZERO),
)
_X_NAMES = ("x_1", "x_2", "x_3", "x_4")


# The per-j parts of every dual built so far, for every j below the largest
# n asked for: y_names[j] is y_j, degree_rows[j - 6] the n_j row and
# split_rows[j - 7] the n_4^j row.  The n_6 row, which every n has too,
# opens the degree rows; y_0..y_4 only let y_names be indexed by j.
_DualTables = tuple[tuple[str, ...], tuple[LpRow, ...], tuple[LpRow, ...]]
_dual_tables: _DualTables = (tuple(map(_y_name, range(7))), (_dual_degree_row(6),), ())


def _dual_tables_for(n: int) -> _DualTables:
    """The shared tables, grown to cover order n when they do not yet.

    Grown tables are built in full and then bound in one assignment, so a
    concurrent caller reads either the old tables or the new ones, each
    whole; one that lost a race to grow them only grows them again later.
    """
    global _dual_tables
    tables = y_names, degree_rows, split_rows = _dual_tables
    if len(y_names) < n:
        new = range(len(y_names), n)
        tables = _dual_tables = (
            y_names + tuple(map(_y_name, new)),
            degree_rows + tuple(map(_dual_degree_row, new)),
            split_rows + tuple(map(_dual_split_row, new)),
        )
    return tables


def build_dual(n: int) -> LpInstance:
    """The dual program, transcribed directly; row ids name the primal variable.

    Every row is shared: the head rows are module constants, and the y_j
    names and per-j rows are prefixes of the shared tables.
    """
    _check_order(n, "the program needs")
    y_names, degree_rows, split_rows = _dual_tables_for(n)
    variables = _X_NAMES + y_names[5:n]
    rows = (*_DUAL_HEAD, *degree_rows[: n - 6], *_DUAL_MIDDLE, *split_rows[: n - 7], *_DUAL_TAIL)
    return LpInstance(
        name=f"profile-dual-{n}",
        sense="max",
        variables=variables,
        objective={"x_1": Fraction(n)},
        rows=rows,
        nonnegative=frozenset(variables[3:]),
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
        out.update(zip(map(_y_name, self.y), self.y.values()))
        return out


def certificate_dual_point(n: int) -> DualPoint:
    """The explicit feasible dual certificate with objective 11n/5."""
    _check_order(n, "the certificate is defined for")
    y = {5: Fraction(2, 35), 6: Fraction(4, 35)}
    y.update(dict.fromkeys(range(7, n), Fraction(6, 35)))
    return DualPoint(
        x1=Fraction(11, 5),
        x2=Fraction(-6, 35),
        x3=Fraction(-6, 35),
        x4=Fraction(1, 70),
        y=y,
    )


def primal_optimum_point(n: int) -> dict[str, Fraction]:
    """The explicit feasible primal point with objective 11n/5; every row is tight.

    In fifteenths of n: 11 vertices of degree 4, 3 of degree 5, 1 of degree 7;
    4 of the degree-4 ones have a degree-5 top neighbour, 7 a degree-7 one.
    """
    _check_order(n, "the program needs")
    point = dict.fromkeys(_primal_variables(n), ZERO)
    k = Fraction(n, 15)
    point.update({"n_4": 11 * k, "n_5": 3 * k, "n_7": k, "n_4^5": 4 * k, "n_4^7": 7 * k})
    return point


class RowCheck(NamedTuple):
    """One evaluated row, with exact Fraction sides and slack.

    slack is rhs - lhs for "<=" and "=" rows and lhs - rhs for ">=" rows,
    so a satisfied inequality has slack >= 0.  check_feasible decides every
    row in its call and keeps only the row's lhs; its report builds a
    RowCheck each time the row is read.
    """

    row_id: str
    relation: str
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    satisfied: bool


class _Rows(Sequence):
    """A report's RowChecks by int position; len builds none, an item builds one."""

    __slots__ = ("_report",)

    def __init__(self, report: FeasibilityReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report._lhs)

    def __getitem__(self, i: int) -> RowCheck:
        report = self._report
        i = index(i)  # a slice raises TypeError
        r, lhs, scale = report._program[i], report._lhs[i], report._scale
        rhs, den = r.rhs_num * scale, r.den * scale
        slack = lhs - rhs if r.relation == ">=" else rhs - lhs
        ok = slack == 0 if r.relation == "=" else slack >= 0
        # half the certificate's rows read zero, so a zero is the shared ZERO
        lhs_q = Fraction(lhs, den) if lhs else ZERO
        return RowCheck(r.row_id, r.relation, lhs_q, r.rhs, Fraction(slack, den) if slack else ZERO, ok)


@dataclass(frozen=True)
class FeasibilityReport:
    """check_feasible's verdict on one point.

    feasible holds when every row is satisfied and no variable lies below
    its sign bound; check_feasible decides both before it returns.  The
    report keeps the program's rows, each row's lhs times ``row.den *
    scale`` and the point's scale, so reports of one program at one point
    compare and hash equal.  rows reads one RowCheck per row of the
    program, in its order, each built when it is read.
    """

    feasible: bool
    bound_violations: tuple[str, ...]
    _program: tuple[LpRow, ...] = field(repr=False, hash=False)
    _lhs: list[int] = field(repr=False, hash=False)
    _scale: int = field(repr=False)

    @property
    def rows(self) -> Sequence[RowCheck]:
        return _Rows(self)


def _point_values(point: Mapping[str, Fraction], variables: Collection[str]) -> list:
    """The point's value of each variable, in order; a missing one is refused."""
    try:
        return list(map(point.__getitem__, variables))
    except KeyError:
        missing = next(v for v in variables if v not in point)
        raise ValueError(f"point is missing variable {missing!r}") from None


def check_feasible(instance: LpInstance, point: Mapping[str, Fraction]) -> FeasibilityReport:
    """Evaluate every row and sign bound exactly; no floating point.

    The point's values (Fractions or ints) are scaled to one common
    denominator, each distinct value object once.  Each row carries its
    integer form from when it was built, so a row costs one integer
    multiply-add per term, and each row and each sign bound is decided over
    integers here.  The report keeps each row's scaled lhs and builds a
    row's RowCheck only when it is read; no Fraction is built here.  The
    8..1000 certificate sweeps evaluate about a million rows, and most
    callers read only ``feasible``.
    """
    variables = instance.variables
    values = _point_values(point, variables)
    # keyed by id: the certificate shares one Fraction across every y_j
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    try:
        scale = lcm(*[p.denominator for p in distinct.values()])
        num = {k: p.numerator * (scale // p.denominator) for k, p in distinct.items()}
    except (AttributeError, TypeError):
        bad, value = next(
            (v, p) for v, p in zip(variables, values) if not isinstance(p, (int, Fraction))
        )
        raise ValueError(
            f"point value of {bad!r} must be an int or a Fraction, got {value!r}"
        ) from None
    scaled = dict(zip(variables, map(num.__getitem__, ids)))
    lhss = []
    append = lhss.append
    satisfied = True
    for r in instance.rows:
        # lhs and rhs are the row's two sides times r.den * scale
        lhs = 0
        for v, c in r.terms:
            lhs += c * scaled[v]
        append(lhs)
        rhs = r.rhs_num * scale
        relation = r.relation
        if relation == "<=":
            if lhs > rhs:
                satisfied = False
        elif lhs < rhs if relation == ">=" else lhs != rhs:
            satisfied = False
    # the sign bounds are read only where a distinct value is negative
    negative = {k for k, p in num.items() if p < 0}
    below = compress(variables, map(negative.__contains__, ids))
    bad_bounds = tuple(filter(instance.nonnegative.__contains__, below))
    return FeasibilityReport(satisfied and not bad_bounds, bad_bounds, instance.rows, lhss, scale)


def objective_value(instance: LpInstance, point: Mapping[str, Fraction]) -> Fraction:
    objective = instance.objective
    return sum(map(mul, objective.values(), _point_values(point, objective)), ZERO)


def _violations(report: FeasibilityReport) -> list[str]:
    """The failed rows' ids, then the variables below their sign bound."""
    return [r.row_id for r in report.rows if not r.satisfied] + list(report.bound_violations)


def solve_primal_exact(n: int) -> Fraction:
    """Exact optimum of the primal program, 11n/5, proved by two certificates.

    ``primal_optimum_point(n)`` is feasible, so the optimum is at most its
    objective; ``certificate_dual_point(n)`` is dual feasible, so by weak
    duality the optimum is at least the dual objective there.  Both are
    checked exactly here, and the two bounds must meet.
    """
    primal = build_primal(n)
    point = primal_optimum_point(n)
    report = check_feasible(primal, point)
    if not report.feasible:
        raise ValueError(f"primal point violates {_violations(report)}")
    dual, dual_point = build_dual(n), certificate_dual_point(n).assignment()
    report = check_feasible(dual, dual_point)
    if not report.feasible:
        raise ValueError(f"certificate violates {_violations(report)}")
    bound = objective_value(dual, dual_point)
    value = objective_value(primal, point)
    if value != bound:
        raise ValueError(f"primal objective {value} differs from the dual bound {bound}")
    return value


