import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit.isogeny import (
    IsogenyBoundInput,
    chain_checkpoints,
    explicit_bound,
    floor_norm_sq,
    implicit_delta_solver,
    period_norm_identity,
    surface_bound_constants,
)
from periodkit.lattice import SiegelTau


class TestExplicitBound:
    def test_general_closed_form(self):
        out = explicit_bound(IsogenyBoundInput(1, 900.0, "general"))
        assert out.bound == pytest.approx(1e7 * 985.0**2)
        assert out.bound == pytest.approx(9.70225e12)

    def test_general_height_above_floor(self):
        out = explicit_bound(IsogenyBoundInput(1, 2000.0, "general"))
        assert out.bound == pytest.approx(1e7 * 2000.0**2)

    def test_cm_closed_form(self):
        out = explicit_bound(IsogenyBoundInput(1, 1.0, "cm"))
        assert out.bound == pytest.approx(3.4e4)
        assert out.simplified is None

    def test_real_closed_form(self):
        out = explicit_bound(IsogenyBoundInput(1, 1.0, "real_place_non_cm"))
        assert out.bound == pytest.approx(3583.0)

    @given(st.integers(1, 100), st.floats(0.0, 100.0))
    @settings(max_examples=100)
    def test_simplified_form_dominates(self, D, hF):
        out = explicit_bound(IsogenyBoundInput(D, hF, "general"))
        assert out.simplified >= out.bound

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            IsogenyBoundInput(0, 1.0, "general")

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            IsogenyBoundInput(1, 1.0, "imaginary")


class TestImplicitSolver:
    def test_frozen_value_and_scan_oracle(self):
        got = implicit_delta_solver(1.0, 1000.0)
        assert got == pytest.approx(2380766665742.4116, rel=1e-9)
        # the oracle walks a multiplicative 1e-6 grid in sqrt(Delta), so it
        # sits up to ~2e-6 below the bisection root
        want = oracles.scan_implicit_delta(1.0, 1000.0)
        assert want <= got
        assert got == pytest.approx(want, rel=5e-6)

    def test_unit_delta_always_admissible(self):
        # sqrt(1) = 1 <= C (H + ...) for every H >= 1000, so the sup is >= 1
        for H in (1000.0, 1e4, 1e6):
            assert implicit_delta_solver(1.0, H) >= 1.0

    def test_low_H_rejected(self):
        with pytest.raises(ValueError):
            implicit_delta_solver(1.0, 999.0)

    @given(st.integers(1, 8), st.floats(0.0, 985.0))
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_explicit_general_bound(self, D, hF):
        H = max(hF + 0.5 * math.log(math.pi), 1000.0)
        delta = implicit_delta_solver(2.0 * D, H)
        cap = explicit_bound(IsogenyBoundInput(D, hF, "general")).bound
        assert delta <= cap


def _implicit_delta_solver_200(D, H):
    """Reference: the solver with its fixed 200-step bisection."""
    C = 1778.0 * D * math.sqrt(2.0 / 3.0)
    base = H + 0.5 * math.log(H) + 2.4

    def excess(s):
        return s - C * (base + 4.0 * math.log(s))

    lo, hi = 1.0, 2.0
    while excess(hi) <= 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo * lo


class TestImplicitSolverBisection:
    @pytest.mark.parametrize("D", [1.0, 1.5, 2.0, 4.0, 8.0, 100.0, 1e6])
    def test_equals_200_step_loop_on_grid(self, D):
        for H in (1000.0, 1000.5, 1500.0, 4321.0, 1e4, 1e6, 1e9, 1e15):
            assert implicit_delta_solver(D, H) == _implicit_delta_solver_200(D, H), (D, H)


class TestChainCheckpoints:
    def test_exactly_seven_all_satisfied(self):
        reports = chain_checkpoints()
        assert len(reports) == 7
        for report in reports:
            assert report.satisfied, str(report)

    def test_recorded_names(self):
        names = [report.name for report in chain_checkpoints()]
        assert names == [
            "log_term_absorption",
            "constant_1545",
            "cm_delta_vs_sqrt233",
            "real_delta_fixed_points",
            "real_constant_3583",
            "constant_1461",
            "two_periods_fallback",
        ]

    def test_real_branch_product_step(self):
        by_name = {report.name: report for report in chain_checkpoints()}
        product = by_name["real_constant_3583"]
        assert product.lhs == pytest.approx(24.62 * 36.38, rel=1e-12)
        assert product.rhs == 895.7
        assert product.inputs["final_lhs"] == pytest.approx(4.0 * 895.7)
        assert product.inputs["final_rhs"] == 3583.0

    def test_fixed_point_pair_values(self):
        by_name = {report.name: report for report in chain_checkpoints()}
        pair = by_name["real_delta_fixed_points"]
        assert pair.lhs == pytest.approx(18.189845100873324, rel=1e-10)
        assert pair.inputs["at_12_31_lhs"] == pytest.approx(
            12.309721623798684, rel=1e-10
        )


class TestSurfaceConstants:
    def test_all_satisfied_with_positive_margin(self):
        for report in surface_bound_constants():
            assert report.satisfied
            assert report.margin > 0, str(report)

    def test_factor_value(self):
        by_name = {r.name: r for r in surface_bound_constants()}
        assert by_name["surface_factor_1778"].lhs == pytest.approx(
            1777.4899094636605, rel=1e-10
        )
        assert by_name["surface_bracket_1_95"].lhs == pytest.approx(
            1.9480814215346486, rel=1e-10
        )


class TestPeriodNormCeiling:
    def test_tau_i(self):
        report = period_norm_identity(1, SiegelTau(0.0, 1.0))
        assert report.lhs == pytest.approx(2.0)
        assert report.rhs == pytest.approx(2.0 / math.sqrt(0.75))
        assert report.satisfied

    def test_boundary_circle_scan(self):
        for k in range(1, 50):
            re = -0.5 + k / 50.0
            tau = SiegelTau(re, math.sqrt(max(1.0 - re * re, 0.75)))
            report = period_norm_identity(1, tau)
            assert report.satisfied, str(report)

    def test_equality_at_half_real_part_corner(self):
        report = period_norm_identity(1, SiegelTau(0.5, math.sqrt(0.75)))
        assert report.margin == pytest.approx(0.0, abs=1e-12)
        assert report.inputs["first_step_margin"] == pytest.approx(0.0, abs=1e-12)
        assert report.inputs["second_step_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_interior_scan_with_floor_index(self):
        for re, im in ((0.0, 1.5), (0.3, 2.0), (-0.5, 3.0), (0.25, 1.01)):
            tau = SiegelTau(re, im)
            n = max(1, math.floor(re * re + im * im))
            report = period_norm_identity(n, tau)
            assert report.satisfied, str(report)

    @pytest.mark.parametrize("re, im", [(0.0, 1.0), (0.3, 2.0), (-0.5, 3.0), (0.25, 1.01), (0.1, 1e150)])
    def test_floor_is_the_float_floor_where_the_square_fits(self, re, im):
        assert floor_norm_sq(SiegelTau(re, im)) == math.floor(re**2 + im**2)

    @pytest.mark.parametrize("im", [1e154, 1e200, 1e298, 8e307])
    def test_finite_where_the_square_overflows(self, im):
        tau = SiegelTau(0.1, im)
        n = floor_norm_sq(tau)
        assert n / int(im) ** 2 == pytest.approx(1.0, rel=1e-15)
        report = period_norm_identity(n, tau)
        assert report.satisfied, str(report)
        for x in (report.lhs, report.rhs, report.inputs["intermediate"]):
            assert x == pytest.approx(2.0 * im, rel=1e-15)
        with pytest.raises(ValueError):
            period_norm_identity(n // 2, tau)

    def test_wrong_index_rejected(self):
        with pytest.raises(ValueError):
            period_norm_identity(3, SiegelTau(0.0, 1.0))
        with pytest.raises(ValueError):
            period_norm_identity(0, SiegelTau(0.0, 1.0))
