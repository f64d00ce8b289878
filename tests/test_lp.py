import copy
import operator
import pickle
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from forestcut import lp, verify
from forestcut.constructions import cycle_diagonals_universal, fixture
from forestcut.lp import (
    DualPoint,
    LpInstance,
    LpRow,
    RowCheck,
    build_dual,
    build_primal,
    check_feasible,
    objective_value,
    certificate_dual_point,
    primal_optimum_point,
    profile_point,
    solve_primal_exact,
)
from forestcut.verify import audit_claim_inequalities

F = Fraction


def dual_variable_names(n):
    names = {
        "vertex-count": "x_1",
        "deg4-partition": "x_2",
        "deg4-top6-split": "x_3",
        "weighted-degree": "x_4",
        "deg5-capacity": "y_5",
        "deg6-capacity": "y_6",
    }
    for j in range(7, n):
        names[f"deg{j}-capacity"] = f"y_{j}"
    return names


def eager_check_feasible(instance, point):
    """The reference for check_feasible's rows: every RowCheck built in the call.

    This is check_feasible's row loop as it was before the report built its
    RowChecks when read; it returns the tuple of RowChecks and the
    variables below their sign bound.
    """
    variables = instance.variables
    values = [point[v] for v in variables]
    distinct = dict(zip(map(id, values), values))
    scale = lcm(*[p.denominator for p in distinct.values()])
    num = {k: p.numerator * (scale // p.denominator) for k, p in distinct.items()}
    scaled = dict(zip(variables, map(num.__getitem__, map(id, values))))
    checks = []
    for r in instance.rows:
        lhs = 0
        for v, c in r.terms:
            lhs += c * scaled[v]
        rhs = r.rhs_num * scale
        relation = r.relation
        slack = lhs - rhs if relation == ">=" else rhs - lhs
        ok = slack == 0 if relation == "=" else slack >= 0
        den = r.den * scale
        checks.append(RowCheck(r.row_id, relation, F(lhs, den), r.rhs, F(slack, den), ok))
    bad_bounds = tuple(v for v in variables if v in instance.nonnegative and scaled[v] < 0)
    return tuple(checks), bad_bounds


def rows_by_id(report):
    """The report's RowChecks keyed by row id."""
    return {c.row_id: c for c in report.rows}


def fields_and_types(checks):
    """Each RowCheck's fields, with the types of its rhs, lhs and slack."""
    return [
        (type(c), tuple(c), type(c.rhs), c.lhs, type(c.lhs), c.slack, type(c.slack))
        for c in checks
    ]


def assert_matches_eager(instance, point):
    report = check_feasible(instance, point)
    checks, bad_bounds = eager_check_feasible(instance, point)
    assert fields_and_types(report.rows) == fields_and_types(checks)
    assert tuple(report.rows) == checks
    assert report.bound_violations == bad_bounds
    assert report.feasible == (not bad_bounds and all(c.satisfied for c in checks))
    return report


def mechanical_dual(primal, dual_names):
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
        rows.append(LpRow(v, coeffs, "<=", primal.objective.get(v, F(0))))
    return LpInstance(
        name=primal.name + "-dualized",
        sense="max",
        variables=dual_vars,
        objective=objective,
        rows=tuple(rows),
        nonnegative=nonneg,
    )


def enumerate_basic_feasible_minimum(instance):
    """Independent oracle: scan every basis of the standardized system.

    Surplus columns are appended for >= rows, then all row-count-sized
    column subsets are solved by exact Gaussian elimination; the minimum
    objective over nonnegative solutions is the LP optimum.
    """
    variables = list(instance.variables)
    rows = list(instance.rows)
    m = len(rows)
    columns = []
    costs = []
    for v in variables:
        columns.append([r.coeffs.get(v, F(0)) for r in rows])
        costs.append(instance.objective.get(v, F(0)))
    for i, r in enumerate(rows):
        if r.relation == ">=":
            col = [F(0)] * m
            col[i] = F(-1)
            columns.append(col)
            costs.append(F(0))
        elif r.relation == "<=":
            col = [F(0)] * m
            col[i] = F(1)
            columns.append(col)
            costs.append(F(0))
    rhs = [r.rhs for r in rows]

    best = None
    for picks in combinations(range(len(columns)), m):
        mat = [[columns[c][i] for c in picks] + [rhs[i]] for i in range(m)]
        solution = _solve_square(mat)
        if solution is None or any(x < 0 for x in solution):
            continue
        value = sum(costs[c] * x for c, x in zip(picks, solution))
        if best is None or value < best:
            best = value
    return best


def _solve_square(mat):
    """Gaussian elimination over Fractions; None when singular."""
    m = len(mat)
    for col in range(m):
        pivot = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [a / inv for a in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][m] for r in range(m)]


class TestBuildPrimal:
    def test_counts_for_n8(self):
        inst = build_primal(8)
        # n_4..n_7, n_4^5..n_4^7, and the two primed splits
        assert len(inst.variables) == 9
        assert len(inst.rows) == 7

    def test_objective_coefficient(self):
        inst = build_primal(8)
        assert inst.objective["n_7"] == F(7, 2)

    def test_too_small(self):
        with pytest.raises(ValueError, match="the program needs n >= 8, got 7") as exc:
            build_primal(7)
        assert [f.name for f in exc.traceback[-2:]] == ["build_primal", "_check_order"]

    def test_variables_stated_once(self):
        for n in range(8, 65):
            assert lp._primal_variables(n) == build_primal(n).variables

    def test_row_relations(self):
        inst = build_primal(10)
        relations = [r.relation for r in inst.rows]
        assert relations[:3] == ["=", "=", "="]
        assert set(relations[3:]) == {">="}


class TestBuildDual:
    def test_j_row_present_for_n8(self):
        inst = build_dual(8)
        row = next(r for r in inst.rows if r.row_id == "n_7")
        assert row.coeffs == {"x_1": F(1), "x_4": F(7), "y_7": F(7)}
        assert row.relation == "<=" and row.rhs == F(7, 2)

    def test_objective(self):
        assert build_dual(8).objective == {"x_1": F(8)}

    @pytest.mark.parametrize("n", [8, 9, 12, 20])
    def test_matches_mechanical_dualization(self, n):
        dual = build_dual(n)
        derived = mechanical_dual(build_primal(n), dual_variable_names(n))
        assert derived.rows == dual.rows
        assert derived.variables == dual.variables
        assert derived.objective == dual.objective
        assert derived.nonnegative == dual.nonnegative

    def test_too_small(self):
        with pytest.raises(ValueError, match="the program needs n >= 8, got 7") as exc:
            build_dual(7)
        assert [f.name for f in exc.traceback[-2:]] == ["build_dual", "_check_order"]

    def test_n6_row_comes_from_the_degree_family(self):
        row = build_dual(8).rows[2]
        assert row is lp._dual_tables[1][0]
        literal = LpRow("n_6", {"x_1": F(1), "x_4": F(6), "y_6": F(6)}, "<=", F(3))
        for again in (lp._dual_degree_row(6), literal):
            assert row == again
            assert (row.den, row.terms, row.rhs_num) == (again.den, again.terms, again.rhs_num)

    def test_rows_are_read_only(self):
        row = next(r for r in build_dual(9).rows if r.row_id == "n_7")
        with pytest.raises(TypeError):
            row.coeffs["y_7"] = F(0)
        with pytest.raises(TypeError):
            del row.coeffs["x_1"]
        with pytest.raises(AttributeError):
            row.den = 1
        coeffs = {"x": F(1, 2)}
        copied = LpRow("r", coeffs, "<=", F(1))
        coeffs["x"] = F(3)
        assert copied.coeffs == {"x": F(1, 2)} and copied.terms == (("x", 1),)

    @staticmethod
    def fresh_tables(monkeypatch):
        """Start the shared dual tables over, as a new process has them."""
        y_names, degree_rows, _ = lp._dual_tables
        monkeypatch.setattr(lp, "_dual_tables", (y_names[:7], degree_rows[:1], ()))

    def test_shared_rows_equal_fresh_ones(self, monkeypatch):
        # any call order, from the tables a new process has
        self.fresh_tables(monkeypatch)
        orders = list(range(8, 201))
        random.Random(36).shuffle(orders)
        for n in orders + [1000, 9, 8]:
            dual = build_dual(n)
            rows = [
                LpRow("n_4", {"x_1": F(1), "x_2": F(1), "x_4": F(-2)}, "<=", F(2)),
                LpRow("n_5", {"x_1": F(1), "x_4": F(5), "y_5": F(4)}, "<=", F(5, 2)),
                *map(lp._dual_degree_row, range(6, n)),
                LpRow("n_4^5", {"x_2": F(-1), "y_5": F(-3)}, "<=", F(0)),
                LpRow("n_4^6", {"x_2": F(-1), "x_3": F(1)}, "<=", F(0)),
                *map(lp._dual_split_row, range(7, n)),
                LpRow("n_4^6'", {"y_5": F(-1), "y_6": F(-1), "x_3": F(-1)}, "<=", F(0)),
                LpRow("n_4^6''", {"y_6": F(-2), "x_3": F(-1)}, "<=", F(0)),
            ]
            assert dual.rows == tuple(rows)
            assert [(r.den, r.terms, r.rhs_num) for r in dual.rows] == [
                (r.den, r.terms, r.rhs_num) for r in rows
            ]
            variables = ("x_1", "x_2", "x_3", "x_4", *(f"y_{j}" for j in range(5, n)))
            assert dual.variables == variables
            assert dual.nonnegative == frozenset(variables[3:])
            assert dual.objective == {"x_1": F(n)}

    def test_rows_shared_across_orders(self, monkeypatch):
        self.fresh_tables(monkeypatch)
        small, large = build_dual(50), build_dual(900)
        assert small.rows[36].row_id == "n_40"
        assert small.rows[36] is next(r for r in large.rows if r.row_id == "n_40")
        assert large.variables[: len(small.variables)] == small.variables
        assert all(map(operator.is_, large.variables, small.variables))

    def test_concurrent_growth_gives_whole_programs(self, monkeypatch):
        self.fresh_tables(monkeypatch)
        expected = {n: [r.row_id for r in build_dual(n).rows] for n in (8, 150, 300)}
        self.fresh_tables(monkeypatch)
        errors = []

        def work(seed):
            orders = [8, 150, 300] * 20
            random.Random(seed).shuffle(orders)
            for n in orders:
                dual = build_dual(n)
                if [r.row_id for r in dual.rows] != expected[n] or len(dual.variables) != n - 1:
                    errors.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_two_bad_rows_name_the_first(self):
        rows = (
            LpRow("ok", {"x": F(1)}, "<=", F(0)),
            LpRow("first", {"ghost": F(1)}, "<=", F(0)),
            LpRow("second", {"x": F(1), "phantom": F(1)}, "<=", F(0)),
        )
        with pytest.raises(ValueError, match="^row 'first' references undeclared variables$"):
            LpInstance("t", "min", ("x",), {}, rows, frozenset())


class TestLpRow:
    def test_integer_form(self):
        row = LpRow("r", {"a": F(1, 6), "b": 2, "c": F(-3, 4)}, ">=", F(5, 3))
        assert row.den == 12
        assert row.terms == (("a", 2), ("b", 24), ("c", -9))
        assert row.rhs_num == 20
        for again in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert again == row and again.terms == row.terms and again.rhs_num == 20

    @pytest.mark.parametrize(
        "coeffs, rhs",
        [({"x": 0.1}, F(1)), ({"x": F(1)}, 0.5), ({"x": "1/2"}, F(0))],
        ids=["float-coefficient", "float-rhs", "str-coefficient"],
    )
    def test_inexact_coefficient_rejected(self, coeffs, rhs):
        with pytest.raises(ValueError, match="row 'r' holds .*; coefficients and rhs must be ints or Fractions"):
            LpRow("r", coeffs, "<=", rhs)

    @pytest.mark.parametrize("relation", [">", "<", "==", "=<", "", "≤"])
    def test_unknown_relation_rejected(self, relation):
        # read as "<=", "x > 5" would be certified at x = 0
        match = f"row 'r' has relation {relation!r}; use '=', '<=' or '>='"

        class Pickled:  # the unpickle path of a row calls LpRow(...) too
            def __reduce__(self):
                return LpRow, ("r", {"x": F(1)}, relation, F(5))

        with pytest.raises(ValueError, match=match):
            LpRow("r", {"x": F(1)}, relation, F(5))
        with pytest.raises(ValueError, match=match):
            pickle.loads(pickle.dumps(Pickled()))


class TestCertificateDualPoint:
    def test_values(self):
        point = certificate_dual_point(12)
        assert point.x1 == F(11, 5)
        assert point.x2 == point.x3 == F(-6, 35)
        assert point.x4 == F(1, 70)
        assert point.y[5] == F(2, 35)
        assert point.y[6] == F(4, 35)
        assert point.y[9] == F(6, 35)
        assert set(point.y) == set(range(5, 12))

    def test_assignment_names_each_y_by_its_key(self):
        a, b = F(1, 3), F(2, 7)
        assert DualPoint(F(1), F(2), F(3), F(4), {5: a, 9: b}).assignment() == {
            "x_1": F(1), "x_2": F(2), "x_3": F(3), "x_4": F(4), "y_5": a, "y_9": b
        }
        for y in ({9: b, 5: a}, {-1: a, 20_000: b}, {}):
            names = list(DualPoint(F(1), F(2), F(3), F(4), y).assignment())[4:]
            assert names == [f"y_{j}" for j in y]

    def test_assignment_shares_the_dual_names(self):
        dual = build_dual(30)
        names = list(certificate_dual_point(30).assignment())
        assert names == list(dual.variables)
        assert all(map(operator.is_, names, dual.variables))


class TestPrimalOptimumPoint:
    def test_values(self):
        point = primal_optimum_point(12)
        assert set(point) == set(build_primal(12).variables)
        nonzero = {v: x for v, x in point.items() if x}
        assert nonzero == {
            "n_4": F(44, 5), "n_5": F(12, 5), "n_7": F(4, 5), "n_4^5": F(16, 5), "n_4^7": F(28, 5)
        }

    def test_too_small(self):
        with pytest.raises(ValueError, match="the program needs n >= 8, got 7"):
            primal_optimum_point(7)


class TestCheckFeasible:
    def test_certificate_point_n20(self):
        report = check_feasible(build_dual(20), certificate_dual_point(20).assignment())
        assert report.feasible
        rows = rows_by_id(report)
        assert rows["n_4"].slack == 0
        assert rows["n_5"].slack == 0
        assert rows["n_6"].slack == F(1, 35)
        # degree rows are tight at j=7 and open up linearly above it
        for j in range(7, 20):
            assert rows[f"n_{j}"].slack == F(11, 35) * (j - 7)
        # the split rows stay tight at every j
        for j in range(7, 20):
            assert rows[f"n_4^{j}"].slack == 0
        assert rows["n_4^5"].slack == 0
        assert rows["n_4^6"].slack == 0
        assert rows["n_4^6'"].slack == 0
        assert rows["n_4^6''"].slack == F(2, 35)

    def test_zeroed_x4_violates_first_row(self):
        point = certificate_dual_point(12)
        moved = DualPoint(point.x1, point.x2, point.x3, F(0), point.y)
        report = check_feasible(build_dual(12), moved.assignment())
        row = rows_by_id(report)["n_4"]
        assert not row.satisfied
        assert row.lhs == F(71, 35)

    def test_zero_point_is_feasible(self):
        n = 10
        zero = {v: F(0) for v in build_dual(n).variables}
        report = check_feasible(build_dual(n), zero)
        assert report.feasible
        assert objective_value(build_dual(n), zero) == 0

    def test_missing_variable(self):
        point = certificate_dual_point(9).assignment()
        del point["y_5"]
        with pytest.raises(ValueError, match="point is missing variable 'y_5'"):
            check_feasible(build_dual(9), point)
        del point["x_2"]  # the first missing variable in the program's order
        with pytest.raises(ValueError, match="point is missing variable 'x_2'"):
            check_feasible(build_dual(9), point)

    def test_objective_of_point_missing_a_variable(self):
        with pytest.raises(ValueError, match="^point is missing variable 'x_1'$"):
            objective_value(build_dual(8), {})

    def test_negative_bound_flagged(self):
        point = certificate_dual_point(9)
        bad = DualPoint(point.x1, point.x2, point.x3, F(-1, 70), point.y)
        report = check_feasible(build_dual(9), bad.assignment())
        assert "x_4" in report.bound_violations
        assert not report.feasible

    @pytest.mark.parametrize("value", [0.5, "1/70"])
    def test_non_rational_value_rejected(self, value):
        point = certificate_dual_point(9).assignment()
        point["x_4"] = value
        with pytest.raises(ValueError, match="point value of 'x_4' must be an int or a Fraction"):
            check_feasible(build_dual(9), point)


def moved_dual_point(n, **change):
    """The certificate at n with some x block values, or y_j values, replaced."""
    point = certificate_dual_point(n)
    y = {**point.y, **change.pop("y", {})}
    fields = {"x1": point.x1, "x2": point.x2, "x3": point.x3, "x4": point.x4, **change}
    return DualPoint(y=y, **fields).assignment()


def moved_primal_point(n, change):
    """primal_optimum_point(n) with each variable in change moved by its amount."""
    point = primal_optimum_point(n)
    for v, amount in change.items():
        point[v] += amount
    return point


class TestRowsMatchEagerLoop:
    """tuple(report.rows) equals the eager loop's RowChecks, field and type."""

    def test_certificate(self):
        for n in range(8, 201):
            assert assert_matches_eager(build_dual(n), certificate_dual_point(n).assignment()).feasible

    @pytest.mark.parametrize(
        "change",
        [{"x4": F(-1, 70)}, {"x1": F(3)}, {"y": {7: F(1, 3)}}],
        ids=["x4=-1/70", "x1=3", "y7=1/3"],
    )
    def test_perturbed_certificate(self, change):
        for n in range(8, 201, 7):
            report = assert_matches_eager(build_dual(n), moved_dual_point(n, **change))
            assert not report.feasible

    def test_primal_optima(self):
        for n in range(8, 65):
            assert assert_matches_eager(build_primal(n), primal_optimum_point(n)).feasible

    @pytest.mark.parametrize(
        "instance, point, failed, slack",
        [
            (build_dual(9), moved_dual_point(9, y={7: F(1, 3)}), "n_7", F(-17, 15)),
            (build_primal(12), moved_primal_point(12, {"n_8": F(1)}), "vertex-count", F(-1)),
            (build_primal(12), moved_primal_point(12, {"n_4^5": F(1), "n_4^7": F(-1)}),
             "deg5-capacity", F(-3)),
        ],
        ids=["<=", "=", ">="],
    )
    def test_one_failing_row_of_each_relation(self, instance, point, failed, slack):
        report = assert_matches_eager(instance, point)
        assert not report.feasible
        assert report.bound_violations == ()
        assert [c.row_id for c in report.rows if not c.satisfied] == [failed]
        assert rows_by_id(report)[failed].slack == slack


class TestRowsSequence:
    """report.rows reads as a sequence of its RowChecks, each built when read."""

    @pytest.fixture
    def report(self):
        return check_feasible(build_dual(20), certificate_dual_point(20).assignment())

    @pytest.fixture
    def eager(self):
        return eager_check_feasible(build_dual(20), certificate_dual_point(20).assignment())[0]

    def test_len_truth_and_indexing(self, report, eager):
        rows = report.rows
        assert RowCheck._fields == ("row_id", "relation", "lhs", "rhs", "slack", "satisfied")
        assert len(rows) == len(eager) == 33
        assert rows
        assert not check_feasible(LpInstance("empty", "min", ("x",), {}, (), frozenset()),
                                  {"x": F(1)}).rows
        for i in (0, 1, 16, 32, -1, -2, -33):
            assert type(rows[i]) is RowCheck and rows[i] == eager[i]
        for i in (33, -34, 10**6):
            with pytest.raises(IndexError):
                rows[i]
        for cut in (slice(None), slice(1, 3), slice(-3, None), slice(None, None, -2),
                    slice(40, 50)):
            with pytest.raises(TypeError):
                rows[cut]

    def test_iteration_repeats(self, report, eager):
        assert tuple(report.rows) == tuple(report.rows) == eager
        assert list(reversed(report.rows)) == list(reversed(eager))
        assert eager[5] in report.rows and report.rows.index(eager[5]) == 5

    def test_row_by_id(self, report, eager):
        rows = rows_by_id(report)
        assert len(rows) == len(eager)  # the row ids are distinct
        for c in eager:
            assert rows[c.row_id] == c and type(rows[c.row_id]) is RowCheck
        assert "n_20" not in rows

    def test_equal_reports_hash_pickle_and_copy(self, report):
        again = check_feasible(build_dual(20), certificate_dual_point(20).assignment())
        assert again == report and hash(again) == hash(report)
        other = check_feasible(build_dual(20), moved_dual_point(20, x1=F(3)))
        assert other != report
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report),
                       copy.copy(report)):
            assert copied == report and hash(copied) == hash(report)
            assert tuple(copied.rows) == tuple(report.rows)
            assert copied.feasible == report.feasible

    def test_len_truth_and_verdict_build_nothing(self, monkeypatch):
        report = check_feasible(build_dual(1000), certificate_dual_point(1000).assignment())
        monkeypatch.setattr(lp, "RowCheck", None)  # building any RowCheck now raises
        assert len(report.rows) == 1993 and report.rows and report.feasible
        with pytest.raises(TypeError):
            report.rows[0]

    def test_report_at_n1000_holds_no_row_checks(self):
        """check_feasible's report, read for feasible and its length, builds no RowCheck.

        The program and the point are built before the trace starts.  Its
        peak is 84 kB (the 1,993 scaled lhs and the scaled point); building
        every RowCheck in the call, as the eager loop does, takes 339 kB.
        """
        dual, point = build_dual(1000), certificate_dual_point(1000).assignment()
        tracemalloc.start()
        try:
            report = check_feasible(dual, point)
            feasible, size = report.feasible, len(report.rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feasible and size == 1993
        assert peak < 160_000


def certified_dual_bound(n):
    """The dual objective n*x1 at the certificate, once the certificate is
    checked dual feasible: a lower bound on the primal optimum."""
    dual, point = build_dual(n), certificate_dual_point(n).assignment()
    assert check_feasible(dual, point).feasible
    return objective_value(dual, point)


class TestWeakDuality:
    def test_bound_n10(self):
        assert certified_dual_bound(10) == 22

    def test_bound_n8(self):
        assert certified_dual_bound(8) == F(88, 5)

    def test_doubling_n_doubles_bound(self):
        assert certified_dual_bound(20) == 2 * certified_dual_bound(10)

    def test_infeasible_certificate_rejected(self, monkeypatch):
        def moved(n):
            point = certificate_dual_point(n)
            return DualPoint(F(3), point.x2, point.x3, point.x4, point.y)

        monkeypatch.setattr(lp, "certificate_dual_point", moved)
        with pytest.raises(
            ValueError, match=r"certificate violates \['n_4', 'n_5', 'n_6', 'n_7', 'n_8'\]"
        ):
            solve_primal_exact(9)


class TestSolvePrimalExact:
    def test_matches_enumeration_oracle_n8(self):
        simplex = solve_primal_exact(8)
        enumerated = enumerate_basic_feasible_minimum(build_primal(8))
        assert simplex == enumerated
        assert simplex >= F(88, 5)

    @pytest.mark.parametrize("n", [8, 9, 12, 16])
    def test_at_least_certified_bound(self, n):
        assert solve_primal_exact(n) >= certified_dual_bound(n)

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="the program needs n >= 8, got 7") as exc:
            solve_primal_exact(7)
        assert [f.name for f in exc.traceback[-3:]] == [
            "solve_primal_exact", "build_primal", "_check_order"
        ]
        assert solve_primal_exact(65) == 143

    @pytest.mark.parametrize("n", [*range(8, 65), 65, 100, 1000])
    def test_equals_eleven_fifths_n(self, n):
        assert solve_primal_exact(n) == F(11 * n, 5)

    @pytest.mark.parametrize("n", [8, 64, 1000])
    def test_every_primal_row_tight(self, n):
        report = check_feasible(build_primal(n), primal_optimum_point(n))
        assert report.feasible
        assert [r.row_id for r in report.rows if r.slack != 0] == []

    def test_perturbed_primal_point_rejected(self, monkeypatch):
        def moved(n):
            point = primal_optimum_point(n)
            point["n_7"] -= F(n, 15)
            point["n_5"] += F(n, 15)
            return point

        monkeypatch.setattr(lp, "primal_optimum_point", moved)
        with pytest.raises(
            ValueError, match=r"primal point violates \['weighted-degree', 'deg7-capacity'\]"
        ):
            solve_primal_exact(9)

    def test_perturbed_dual_point_rejected(self, monkeypatch):
        def moved(n):
            point = certificate_dual_point(n)
            return DualPoint(point.x1, point.x2, point.x3, point.x4, {**point.y, 7: F(1, 3)})

        monkeypatch.setattr(lp, "certificate_dual_point", moved)
        with pytest.raises(ValueError, match=r"certificate violates \['n_7'\]"):
            solve_primal_exact(9)

    def test_feasible_primal_point_above_the_bound_rejected(self, monkeypatch):
        def all_top_degree(n):  # every vertex of degree n - 1: feasible, objective n(n-1)/2
            point = dict.fromkeys(build_primal(n).variables, F(0))
            point[f"n_{n - 1}"] = F(n)
            return point

        monkeypatch.setattr(lp, "primal_optimum_point", all_top_degree)
        with pytest.raises(ValueError, match="primal objective 36 differs from the dual bound 99/5"):
            solve_primal_exact(9)

    def test_unknown_sense_rejected(self):
        for sense in ("maximize", "MIN", ""):
            with pytest.raises(ValueError, match=f"^sense {sense!r}; use 'min' or 'max'$"):
                LpInstance("t", sense, ("a",), {"a": F(1)}, (), frozenset())

    def test_undeclared_nonnegative_variable_rejected(self):
        with pytest.raises(ValueError, match="^nonnegative variable 'zz' is not declared$"):
            LpInstance("t", "max", ("a",), {"a": F(1)}, (), frozenset({"zz"}))
        with pytest.raises(ValueError, match="^nonnegative variable 'b' is not declared$"):
            LpInstance("t", "max", ("a",), {}, (), frozenset({"a", "c", "b"}))

    def test_undeclared_variable_rejected(self):
        from forestcut.lp import LpInstance, LpRow

        valid = tuple(LpRow(f"ok{i}", {"x": F(i)}, "<=", F(0)) for i in range(3))
        with pytest.raises(ValueError, match="^objective references undeclared variables$"):
            LpInstance(name="bad", sense="min", variables=("x",), objective={"ghost": F(1)},
                       rows=valid, nonnegative=frozenset(("x",)))
        with pytest.raises(ValueError, match="row 'r' references undeclared variables"):
            LpInstance(
                name="bad",
                sense="min",
                variables=("x",),
                objective={"x": F(1)},
                rows=valid + (LpRow("r", {"x": F(1), "ghost": F(1)}, "<=", F(0)),) + valid,
                nonnegative=frozenset(("x",)),
            )


class TestPrimalBuiltOnce:
    @staticmethod
    def counted_builds(monkeypatch, *modules):
        calls = []

        def counted(n):
            calls.append(n)
            return build_primal(n)

        for module in modules:
            monkeypatch.setattr(module, "build_primal", counted)
        return calls

    @pytest.mark.parametrize("n", [8, 64])
    def test_solve_primal_exact(self, monkeypatch, n):
        calls = self.counted_builds(monkeypatch, lp)
        assert solve_primal_exact(n) == F(11 * n, 5)
        assert calls == [n]

    @pytest.mark.parametrize("name, size", [("icosahedron", 12), ("octahedron", 8)])
    def test_audit_claim_inequalities(self, monkeypatch, name, size):
        calls = self.counted_builds(monkeypatch, lp, verify)
        audit_claim_inequalities(fixture(name))
        assert calls == [size]


class TestOrderBound:
    """An n above lp._MAX_N is refused on entry, before any row is built."""

    @pytest.mark.parametrize("build", [build_primal, build_dual, certificate_dual_point,
                                       solve_primal_exact])
    def test_huge_n_refused_in_constant_memory(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r" n <= 10000, got 100000000$") as exc:
                build(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        via = ["build_primal"] if build is solve_primal_exact else []
        frames = [f.name for f in exc.traceback[-len(via) - 2:]]
        assert frames == [build.__name__, *via, "_check_order"]
        assert peak < 1 << 20

    @pytest.mark.parametrize("build", [build_primal, build_dual, certificate_dual_point])
    def test_bound_is_the_last_order_built(self, build):
        assert lp._MAX_N == 10_000
        build(lp._MAX_N)
        with pytest.raises(ValueError, match=f"got {lp._MAX_N + 1}$"):
            build(lp._MAX_N + 1)


class TestWeakDualityProperty:
    def test_primal_feasible_points_dominate_dual_points(self):
        from forestcut.constructions import fixture

        n = 12
        primal = build_primal(n)
        dual = build_dual(n)
        icosahedron = profile_point(fixture("icosahedron"))
        assert check_feasible(primal, icosahedron).feasible
        one_fifth = {  # the balanced profile that meets the bound exactly
            v: F(0) for v in primal.variables
        }
        one_fifth["n_4"] = F(11 * n, 15)
        one_fifth["n_5"] = F(n, 5)
        one_fifth["n_7"] = F(n, 15)
        one_fifth["n_4^5"] = F(4, 3) * one_fifth["n_5"]
        one_fifth["n_4^7"] = 7 * one_fifth["n_7"]
        assert check_feasible(primal, one_fifth).feasible
        dual_points = [
            certificate_dual_point(n).assignment(),
            {v: F(0) for v in dual.variables},
        ]
        for p in (icosahedron, one_fifth):
            for d in dual_points:
                assert check_feasible(dual, d).feasible
                assert objective_value(primal, p) >= objective_value(dual, d)

    def test_icosahedron_profile_objective_is_edge_count(self):
        g = fixture("icosahedron")
        primal = build_primal(g.order)
        point = profile_point(g)
        assert check_feasible(primal, point).feasible
        assert objective_value(primal, point) == g.size

    def test_audit_failure_matches_infeasibility(self):
        g = cycle_diagonals_universal(4)  # 9 vertices, degree-4 ring
        record = audit_claim_inequalities(g)
        assert not record.weighted_degree_row
        report = check_feasible(build_primal(g.order), profile_point(g))
        assert not rows_by_id(report)["weighted-degree"].satisfied
