"""Independent oracles for the lp module, from locally installed packages.

hypothesis drives check_feasible against naive Fraction arithmetic on random
programs; scipy's HiGHS solver re-derives the primal optimum in floating
point, independently of the two certificates that prove it exactly.  Each
is skipped where its package is not installed.
"""

from fractions import Fraction

import pytest

from forestcut.lp import (
    LpInstance,
    LpRow,
    build_primal,
    check_feasible,
    objective_value,
    primal_optimum_point,
    solve_primal_exact,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=30)


@st.composite
def programs_and_points(draw):
    """A random program and point; some rows get the point's exact lhs as rhs."""
    variables = tuple(f"v{i}" for i in range(draw(st.integers(1, 6))))
    point = {v: draw(st.integers(-9, 9) | RATIONALS) for v in variables}
    rows = []
    for i in range(draw(st.integers(0, 8))):
        support = draw(st.lists(st.sampled_from(variables), unique=True))
        coeffs = {v: draw(st.integers(-9, 9) | RATIONALS) for v in support}
        relation = draw(st.sampled_from(["=", "<=", ">="]))
        if draw(st.booleans()):
            rhs = sum((c * point[v] for v, c in coeffs.items()), Fraction(0))
        else:
            rhs = draw(st.integers(-9, 9) | RATIONALS)
        rows.append(LpRow(f"r{i}", coeffs, relation, rhs))
    nonnegative = frozenset(draw(st.lists(st.sampled_from(variables), unique=True)))
    instance = LpInstance("random", "min", variables, {}, tuple(rows), nonnegative)
    return instance, point


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(programs_and_points())
def test_check_feasible_matches_naive_fraction_evaluation(case):
    instance, point = case
    report = check_feasible(instance, point)
    assert len(report.rows) == len(instance.rows)
    for row, check in zip(instance.rows, report.rows):
        lhs = sum((c * point[v] for v, c in row.coeffs.items()), Fraction(0))
        slack = lhs - row.rhs if row.relation == ">=" else row.rhs - lhs
        satisfied = slack == 0 if row.relation == "=" else slack >= 0
        assert (check.row_id, check.relation, check.rhs) == (row.row_id, row.relation, row.rhs)
        assert type(check.lhs) is Fraction and check.lhs == lhs
        assert type(check.slack) is Fraction and check.slack == slack
        assert check.satisfied == satisfied
    violations = tuple(v for v in instance.variables if v in instance.nonnegative and point[v] < 0)
    assert report.bound_violations == violations
    assert report.feasible == (not violations and all(r.satisfied for r in report.rows))


@pytest.mark.parametrize("n", [*range(8, 65), 65, 100])
def test_highs_primal_optimum_matches_certificates(n):
    optimize = pytest.importorskip("scipy.optimize")
    primal = build_primal(n)
    assert primal.nonnegative == frozenset(primal.variables)
    index = {v: i for i, v in enumerate(primal.variables)}

    def dense(row, sign):
        out = [0.0] * len(index)
        for v, c in row.coeffs.items():
            out[index[v]] = sign * float(c)
        return out

    equal = [r for r in primal.rows if r.relation == "="]
    at_least = [r for r in primal.rows if r.relation == ">="]
    assert len(equal) + len(at_least) == len(primal.rows)
    result = optimize.linprog(
        [float(primal.objective.get(v, 0)) for v in primal.variables],
        A_ub=[dense(r, -1) for r in at_least],
        b_ub=[-float(r.rhs) for r in at_least],
        A_eq=[dense(r, 1) for r in equal],
        b_eq=[float(r.rhs) for r in equal],
        bounds=[(0, None)] * len(index),
        method="highs",
    )
    assert result.status == 0, result.message
    assert result.fun == pytest.approx(float(solve_primal_exact(n)), rel=0, abs=1e-9)
    assert result.fun == pytest.approx(
        float(objective_value(primal, primal_optimum_point(n))), rel=0, abs=1e-9
    )
    assert result.fun == pytest.approx(11 * n / 5, rel=0, abs=1e-9)
