from fractions import Fraction
from itertools import combinations

import pytest

from forestcut.constructions import cycle_diagonals_universal, fixture
from forestcut.graph import degree_profile
from forestcut.lp import (
    DualPoint,
    build_dual,
    build_primal,
    check_feasible,
    mechanical_dual,
    objective_value,
    certificate_dual_point,
    solve_min_exact,
    solve_primal_exact,
    weak_duality_bound,
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
        assert exc.traceback[-1].name == "build_primal"

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
        assert exc.traceback[-1].name == "build_dual"


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


class TestCheckFeasible:
    def test_certificate_point_n20(self):
        report = check_feasible(build_dual(20), certificate_dual_point(20).assignment())
        assert report.feasible
        assert report.row("n_4").slack == 0
        assert report.row("n_5").slack == 0
        assert report.row("n_6").slack == F(1, 35)
        # degree rows are tight at j=7 and open up linearly above it
        for j in range(7, 20):
            assert report.row(f"n_{j}").slack == F(11, 35) * (j - 7)
        # the split rows stay tight at every j
        for j in range(7, 20):
            assert report.row(f"n_4^{j}").slack == 0
        assert report.row("n_4^5").slack == 0
        assert report.row("n_4^6").slack == 0
        assert report.row("n_4^6'").slack == 0
        assert report.row("n_4^6''").slack == F(2, 35)

    def test_zeroed_x4_violates_first_row(self):
        point = certificate_dual_point(12)
        moved = DualPoint(point.x1, point.x2, point.x3, F(0), point.y)
        report = check_feasible(build_dual(12), moved.assignment())
        row = report.row("n_4")
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

    def test_negative_bound_flagged(self):
        point = certificate_dual_point(9)
        bad = DualPoint(point.x1, point.x2, point.x3, F(-1, 70), point.y)
        report = check_feasible(build_dual(9), bad.assignment())
        assert "x_4" in report.bound_violations
        assert not report.feasible


class TestWeakDuality:
    def test_bound_n10(self):
        assert weak_duality_bound(10, certificate_dual_point(10)) == 22

    def test_bound_n8(self):
        assert weak_duality_bound(8, certificate_dual_point(8)) == F(88, 5)

    def test_doubling_n_doubles_bound(self):
        assert weak_duality_bound(20, certificate_dual_point(20)) == 2 * weak_duality_bound(
            10, certificate_dual_point(10)
        )

    def test_infeasible_certificate_rejected(self):
        point = certificate_dual_point(9)
        bad = DualPoint(F(3), point.x2, point.x3, point.x4, point.y)
        with pytest.raises(ValueError, match="certificate violates"):
            weak_duality_bound(9, bad)


class TestSolvePrimalExact:
    def test_matches_enumeration_oracle_n8(self):
        simplex = solve_primal_exact(8)
        enumerated = enumerate_basic_feasible_minimum(build_primal(8))
        assert simplex == enumerated
        assert simplex >= F(88, 5)

    @pytest.mark.parametrize("n", [8, 9, 12, 16])
    def test_at_least_certified_bound(self, n):
        assert solve_primal_exact(n) >= weak_duality_bound(n, certificate_dual_point(n))

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="the program needs n >= 8, got 7") as exc:
            solve_primal_exact(7)
        assert exc.traceback[-1].name == "solve_primal_exact"
        with pytest.raises(ValueError):
            solve_primal_exact(65)

    def test_undeclared_variable_rejected(self):
        from forestcut.lp import LpInstance, LpRow

        with pytest.raises(ValueError):
            LpInstance(
                name="bad",
                sense="min",
                variables=("x",),
                objective={"x": F(1)},
                rows=(LpRow("r", {"ghost": F(1)}, "<=", F(0)),),
                nonnegative=frozenset(("x",)),
            )

    def test_generic_solver_on_known_instance(self):
        # min x + y subject to x + y >= 2, x - y = 0, x,y >= 0 has optimum 2
        from forestcut.lp import LpInstance, LpRow

        inst = LpInstance(
            name="toy",
            sense="min",
            variables=("x", "y"),
            objective={"x": F(1), "y": F(1)},
            rows=(
                LpRow("lower", {"x": F(1), "y": F(1)}, ">=", F(2)),
                LpRow("tie", {"x": F(1), "y": F(-1)}, "=", F(0)),
            ),
            nonnegative=frozenset(("x", "y")),
        )
        assert solve_min_exact(inst) == 2


class TestWeakDualityProperty:
    def test_primal_feasible_points_dominate_dual_points(self):
        from forestcut.constructions import fixture

        n = 12
        primal = build_primal(n)
        dual = build_dual(n)
        icosa_profile = degree_profile(fixture("icosahedron"))
        profile_point = {v: F(0) for v in primal.variables}
        for i, count in icosa_profile.n_i.items():
            profile_point[f"n_{i}"] = F(count)
        assert check_feasible(primal, profile_point).feasible
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
        for p in (profile_point, one_fifth):
            for d in dual_points:
                assert check_feasible(dual, d).feasible
                assert objective_value(primal, p) >= objective_value(dual, d)

    def test_icosahedron_profile_objective_is_edge_count(self):
        g = fixture("icosahedron")
        profile = degree_profile(g)
        primal = build_primal(g.order)
        point = {v: F(0) for v in primal.variables}
        for i, count in profile.n_i.items():
            point[f"n_{i}"] = F(count)
        assert check_feasible(primal, point).feasible
        assert objective_value(primal, point) == g.size

    def test_audit_failure_matches_infeasibility(self):
        g = cycle_diagonals_universal(4)  # 9 vertices, degree-4 ring
        record = audit_claim_inequalities(g)
        assert not record.weighted_degree_row
        profile = degree_profile(g)
        primal = build_primal(g.order)
        point = {v: F(0) for v in primal.variables}
        for i, count in profile.n_i.items():
            point[f"n_{i}"] = F(count)
        for j, count in profile.n_4_j.items():
            point[f"n_4^{j}"] = F(count)
        point["n_4^6'"] = F(profile.n_4_6_prime)
        point["n_4^6''"] = F(profile.n_4_6_doubleprime)
        report = check_feasible(primal, point)
        assert not report.row("weighted-degree").satisfied
