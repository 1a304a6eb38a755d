import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit.bounds import (
    EPS_COEFFICIENT,
    GAMMA4,
    GAMMA6,
    BoundReport,
    autissier_report,
    bisect_last,
    c1_of_g,
    c2_of_g,
    matrix_lemma_report,
    orthogonal_split_degree_report,
    prop_ell_caps,
    prop_ell_delta_max,
    prop_ell_solver,
    quadratic_root_bound,
    structural_constants,
)

finite = st.floats(-1e12, 1e12)


class TestBoundReport:
    @given(finite, finite)
    @settings(max_examples=200)
    def test_satisfied_flag_matches_margin_rule(self, lhs, rhs):
        report = BoundReport("probe", lhs, rhs)
        assert report.margin == rhs - lhs
        assert report.satisfied == (report.margin >= -1e-12 * max(1.0, abs(rhs)))

    def test_to_dict_round_trip_fields(self):
        report = BoundReport("probe", 1.0, 2.0, inputs={"x": 3})
        d = report.as_dict()
        assert d["name"] == "probe"
        assert d["lhs"] == 1.0 and d["rhs"] == 2.0
        assert d["margin"] == 1.0 and d["satisfied"] is True
        assert d["inputs"] == {"x": 3}

    def test_str_verdict_prefix(self):
        assert str(BoundReport("ok", 0.0, 1.0)).startswith("PASS ok:")
        assert str(BoundReport("bad", 2.0, 1.0)).startswith("FAIL bad:")

    def test_huge_rhs_uses_relative_slack(self):
        assert BoundReport("rel", 1e15 + 1.0, 1e15).satisfied
        assert not BoundReport("abs", 1.0 + 1e-6, 1.0).satisfied


class TestProofConstants:
    def test_recorded_values(self):
        assert EPS_COEFFICIENT == pytest.approx(6.0 * math.sqrt(2.0) - 8.0, abs=1e-16)
        assert GAMMA4 == pytest.approx(math.sqrt(2.0), abs=1e-16)
        assert GAMMA6 == pytest.approx(2.0 / 3.0 ** (1.0 / 6.0), abs=1e-15)


class TestPeriodMeanVsHeight:
    def test_fixture_pipeline(self, bundled_records):
        from periodkit.heights import H_SHIFT, faltings_height_silverman

        for rec in bundled_records:
            h = faltings_height_silverman(rec) + H_SHIFT
            rhos = [1.0 / math.sqrt(t.im) for t in rec.embeddings]
            report = autissier_report(rhos, h, 1)
            assert report.satisfied, str(report)

    def test_cap_is_applied(self):
        # minima above the cap are clamped, so the lhs freezes at the
        # cap's value of pi/(6 rho^2) + log(rho)
        cap = math.sqrt(math.pi / 3.0)
        report = autissier_report([1.05], 10.0, 1)
        assert report.inputs["rho_cap"] == pytest.approx(cap, rel=1e-12)
        assert report.lhs == pytest.approx(
            math.pi / (6.0 * cap * cap) + math.log(cap), rel=1e-12
        )


class TestMatrixLemma:
    def test_unit_inputs(self):
        report = matrix_lemma_report(1.0, 1.0, 1.0, 1, "eleven")
        assert report.satisfied
        assert report.rhs == 11.0

    def test_fixture_pipeline_both_variants(self, bundled_records):
        from periodkit.heights import H_SHIFT, faltings_height_silverman

        for rec in bundled_records:
            hF = faltings_height_silverman(rec)
            h = hF + H_SHIFT
            T = sum(t.im for t in rec.embeddings) / rec.degree
            assert matrix_lemma_report(T, h, 1.0, 1, "eleven").satisfied
            assert matrix_lemma_report(T, hF, 1.0, 1, "fourteen").satisfied

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            matrix_lemma_report(1.0, 1.0, 1.0, 1, "fifteen")


class TestPropEll:
    def test_bisection_matches_scan_oracle(self):
        for h in (1.0, 10.0, 1000.0):
            got = prop_ell_delta_max(h)
            want = oracles.scan_prop_ell_delta(h)
            assert got == pytest.approx(want, abs=1e-6)

    def test_frozen_values(self):
        assert prop_ell_delta_max(1.0) == pytest.approx(6.44587785034942, rel=1e-10)
        assert prop_ell_delta_max(1000.0) == pytest.approx(
            1919.8351437779013, rel=1e-10
        )

    def test_solver_outputs_and_conditions(self):
        general, large, reports = prop_ell_solver(1.0)
        assert general == pytest.approx(6.45)
        assert large == pytest.approx(1920.0)
        assert all(r.satisfied for r in reports)
        names = {r.name for r in reports}
        assert "ell_proof_condition_Y6.45_Z1" in names
        assert "ell_proof_condition_Y1920_Z1000" in names

    def test_solver_scales_with_height(self):
        general, large, _ = prop_ell_solver(2000.0)
        assert general == pytest.approx(6.45 * 2000.0)
        assert large == pytest.approx(1.92 * 2000.0)

    def test_caps_are_the_solver_caps(self):
        for h in (-0.5, 0.0, 1.0, 3.7, 1000.0, 2000.0):
            assert prop_ell_caps(h) == prop_ell_solver(h)[:2], h


def _bisect_200(pred, lo, hi):
    """Reference: the fixed 200-step loop that bisect_last replaced."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _prop_ell_delta_max_200(h):
    rhs_const = 6.0 * h + 8.66

    def excess(d):
        return math.pi * d - 3.0 * math.log(d) - rhs_const

    lo = 3.0 / math.pi
    hi = max(2.0 * lo, 2.0)
    while excess(hi) <= 0:
        hi *= 2.0
    return _bisect_200(lambda d: excess(d) <= 0, lo, hi)


class TestBisectLast:
    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0, 10.0, 1e6, 1e30])
    def test_equals_fixed_200_step_loop(self, c):
        calls = []

        def pred(x):
            calls.append(x)
            return x * x <= c

        got = bisect_last(pred, 0.0, max(1.0, c))
        assert got == _bisect_200(lambda x: x * x <= c, 0.0, max(1.0, c))
        assert len(calls) < 200
        assert got * got <= c < math.nextafter(got, math.inf) ** 2

    def test_prop_ell_delta_max_equals_200_step_loop_on_h_grid(self):
        hs = [-0.9, -0.5, 0.0, 0.25] + [10.0 ** (k / 8.0) for k in range(-16, 57)]
        for h in hs:
            assert prop_ell_delta_max(h) == _prop_ell_delta_max_200(h), h


class TestQuadraticRootBound:
    @given(st.floats(0, 100), st.floats(0.01, 1e6))
    @settings(max_examples=100)
    def test_dominates_true_root(self, alpha, beta):
        # M solves M = alpha sqrt(M) + beta; the closed form must dominate
        m = beta
        for _ in range(200):
            m = alpha * math.sqrt(m) + beta
        assert quadratic_root_bound(alpha, beta) >= m * (1 - 1e-9)

    def test_alpha_zero_collapses_to_beta(self):
        assert quadratic_root_bound(0.0, 7.5) == 7.5


class TestStructuralConstants:
    def test_full_range_green(self):
        reports = structural_constants(500)
        for report in reports:
            assert report.satisfied, str(report)

    def test_closed_form_worst_points_match_brute_force_grid(self):
        # reference sweep: the (g, eps) and (g, xi) grids the closed forms
        # replace, keeping the first point of least margin
        g_max, grid = 60, 200
        c = EPS_COEFFICIENT
        by_name = {r.name: r for r in structural_constants(g_max, eps_grid=grid)}

        def first_min(points):
            return min(points, key=lambda p: p[1] - p[0])

        def same(report, lhs, rhs, **inputs):
            assert (report.lhs, report.rhs) == (lhs, rhs), report.name
            for key, value in inputs.items():
                assert report.inputs[key] == value, (report.name, key)

        lhs, rhs, g, eps = first_min(
            (g * math.log1p(i / grid / g), -math.log1p(-i / grid), g, i / grid)
            for g in range(2, g_max + 1)
            for i in range(1, grid)
        )
        same(by_name["r_g_eps_bound"], lhs, rhs, g=g, eps=eps)
        lhs, rhs, xi = first_min(
            (c * (i / grid) + (c * (i / grid)) ** 2 / 16.0, (i / grid) / 2.0, i / grid)
            for i in range(1, grid + 1)
        )
        same(by_name["eps_choice_inequality_g2"], lhs, rhs, g=2, xi=xi)
        assert by_name["eps_choice_inequality_g2"].margin < 0.0  # float rounding at xi = 1
        lhs, rhs, g, xi = first_min(
            (c + (i / grid / 8.0) * math.exp(-g * math.log(g)), 0.5, g, i / grid)
            for g in range(3, g_max + 1)
            for i in range(1, grid + 1)
        )
        same(by_name["eps_choice_inequality_g_ge_3"], lhs, rhs, g=g, xi=xi)

    def test_small_g_max_emits_only_reports(self):
        for g_max in (2, 3, 5, 6):
            reports = structural_constants(g_max)
            assert all(isinstance(r, BoundReport) and r.satisfied for r in reports), g_max
        names = {r.name for r in structural_constants(5)}
        assert "eps_choice_inequality_g_ge_3" in names
        assert "c2_is_three_halves_for_g_ge_6" not in names
        with pytest.raises(ValueError):
            structural_constants(10, eps_grid=1)

    def test_c2_at_most_11_c1_prefix(self):
        for g in range(1, 40):
            assert c2_of_g(g) <= 11.0 * c1_of_g(g) + 1e-12

    def test_small_g_values_match_direct_arithmetic(self):
        # c2 = max(3/2, (1/g) log(2 pi^2 e / 3) + (1/g) log g ... ) style
        # envelope; spot-check against the two defining branches
        assert c2_of_g(6) == pytest.approx(1.5)
        assert c1_of_g(1) > 0
        assert c1_of_g(500) > c1_of_g(6)


class TestOrthogonalSplit:
    def test_balanced_split(self):
        report = orthogonal_split_degree_report(2.0, 3.0, 2.0)
        assert report.satisfied
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(4.0)

    @given(st.floats(1, 100), st.floats(1, 100), st.floats(1, 100))
    @settings(max_examples=60)
    def test_report_encodes_defining_ratio(self, b, bp, a):
        report = orthogonal_split_degree_report(b, bp, a)
        assert report.lhs == pytest.approx(b * bp / a, rel=1e-12)
        assert report.rhs == pytest.approx(b * b, rel=1e-12)
        assert report.satisfied == (report.margin >= -1e-12 * max(1.0, report.rhs))
