import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit.bounds import BoundReport
from periodkit.interpolation import (
    SINH_PI,
    AnalyticTestFunction,
    _circle_min,
    _half_disc_bound,
    _node_residues,
    hermite_identity_check,
    lemma52_checks,
    poly_P,
    schwarz_lemma_check,
    u_sequence,
    u_value,
)


class TestNodePolynomial:
    def test_s1_is_identity(self):
        for z in (0.3, -1.7 + 0.4j, 2j):
            assert poly_P(1, z) == z

    def test_s5_against_extended_precision_product(self):
        z = 1.3 + 0.2j
        got = poly_P(5, z)
        with mpmath.workdps(40):
            want = mpmath.mpc(1)
            for j in range(-4, 5):
                want *= mpmath.mpc(z) - j
        assert abs(got - complex(want)) < 1e-12 * abs(complex(want))

    @given(st.integers(2, 9), st.integers(-20, 20))
    @settings(max_examples=60)
    def test_vanishes_exactly_at_interior_integers(self, S, k):
        if abs(k) <= S - 1:
            assert poly_P(S, float(k)) == 0.0
        else:
            assert poly_P(S, float(k)) != 0.0


class TestLemma52Suite:
    def test_all_reports_satisfied_to_s8(self):
        for report in lemma52_checks(8):
            assert report.satisfied, str(report)

    def test_report_families_present(self):
        names = {r.name.split("[")[0] for r in lemma52_checks(3)}
        assert names == {
            "node_poly_endpoints",
            "node_poly_sin_lower",
            "node_poly_region_upper",
            "node_poly_circle_min",
        }

    def test_unit_disc_value_is_P_at_i_and_above_samples(self):
        # the half-disc bound stays below the unit-disc maximum, so the
        # region report carries the exact value |P(+-i)|; 2^16 samples on
        # |z| = 1 may land a few ulps above it by rounding
        regions = [r for r in lemma52_checks(12) if r.name.startswith("node_poly_region_upper")]
        for S, report in zip(range(2, 13), regions):
            assert report.lhs == abs(poly_P(S, 1j)) == abs(poly_P(S, -1j))
            _, vals = oracles.node_poly_on_circle(S, 0.0, 1.0, 2**16)
            assert report.lhs >= vals.max() * (1.0 - 1e-14)

    def test_half_disc_bound_dominates_dense_samples(self):
        for S in range(2, 13):
            bound = _half_disc_bound(S)
            for center in (1.0, -1.0):
                _, vals = oracles.node_poly_on_circle(S, center, 0.5, 2**16)
                assert bound >= vals.max(), (S, center)

    def test_half_disc_bound_stays_below_the_unit_disc_maximum(self):
        # so node_poly_region_upper keeps the exact unit-disc value as its lhs
        for S in range(2, 13):
            assert _half_disc_bound(S) < math.prod(1 + j * j for j in range(1, S)), S

    def test_region_lhs_only_falls_against_the_cofactor_sweep(self):
        regions = [r for r in lemma52_checks(12) if r.name.startswith("node_poly_region_upper")]
        for S, report in zip(range(2, 13), regions):
            assert report.lhs <= oracles.region_upper_sweep(S), S

    def test_cofactor_sweep_reproduces_the_sampled_report_values(self):
        # lhs of node_poly_region_upper[S] when it was the inflated sweep
        old = {2: 2.003703357222533, 5: 1705.7712075688803, 8: 82110554.78808558}
        for S, value in old.items():
            assert oracles.region_upper_sweep(S) == pytest.approx(value, rel=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_circle_min_is_the_real_point_toward_zero(self, data):
        S = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(1 - S, S - 1))
        rho = data.draw(st.floats(0.1, S - abs(k) + 0.5))
        proved = _circle_min(S, k, rho)
        left, right = abs(poly_P(S, k - rho)), abs(poly_P(S, k + rho))
        assert proved == (left if k > 0 else right if k < 0 else min(left, right))
        dense = oracles.circle_min_sweep(S, k, rho, samples=2**14)
        assert proved <= dense * (1.0 + 1e-12)

    def test_sine_reports_equal_the_full_grid(self):
        # the nearest-integer points hold the argmin of the whole step-1e-3 grid
        reports = [r for r in lemma52_checks(16) if r.name.startswith("node_poly_sin_lower")]
        for S, report in zip(range(2, 17), reports):
            got = (report.lhs, report.rhs, report.inputs["worst_t"])
            assert got == oracles.sine_grid_worst(S), S

    def test_circle_min_reports_match_the_sampled_circle(self):
        for report in lemma52_checks(8, seed=3):
            if report.name.startswith("node_poly_circle_min"):
                S, k, rho = report.inputs["S"], report.inputs["k"], report.inputs["rho"]
                assert report.margin == 0.0
                assert report.rhs == pytest.approx(oracles.circle_min_sweep(S, k, rho), rel=1e-12)

    def test_contour_nodes_keep_unit_separation(self):
        # points on the outer circle |w| = S stay at distance >= 1 from
        # every interpolation node, twice the inner contour radius
        for S in (2, 3, 4, 6):
            for k in range(4096):
                w = S * cmath.exp(2j * math.pi * k / 4096)
                assert min(abs(w - j) for j in range(1 - S, S)) >= 1.0 - 1e-12


class TestUSequence:
    def test_u2_is_eight_thirds_to_rounding(self):
        assert u_value(2) == pytest.approx(8.0 / 3.0, abs=1e-14)

    def test_u1000_matches_extended_precision(self):
        assert u_value(1000) == pytest.approx(0.11211383768123201, rel=1e-12)
        assert u_value(1000) == pytest.approx(float(oracles.mp_u(1000)), rel=1e-12)

    def test_sequence_reports(self):
        reports = {r.name: r for r in u_sequence(1000)}
        for name, report in reports.items():
            assert report.satisfied, str(report)
        assert reports["u_at_2_is_8_3"].lhs < 1e-14
        assert reports["u_below_8_3_from_3"].margin > 0.0
        assert reports["sinh_constant_10"].margin > 0.0
        assert reports["sinh_constant_12"].margin > 0.0

    def test_proved_worst_points_equal_the_sweeps(self):
        for S_max in (*range(2, 61), 1000, 10**4):
            swept = oracles.u_sweeps(S_max, u_value)
            got = {r.name: r for r in u_sequence(S_max) if r.name in swept}
            assert got == {name: BoundReport(*row) for name, row in swept.items() if row}, S_max

    @given(st.integers(2, 200))
    @settings(max_examples=60)
    def test_closed_form_ratio(self, S):
        # u_S / u_{S+1} = 1 + 1/(2S) exactly in rational arithmetic
        assert u_value(S) / u_value(S + 1) == pytest.approx(
            1.0 + 1.0 / (2.0 * S), rel=1e-11
        )


class TestHermiteIdentity:
    def test_constant_function_minimal_parameters(self):
        f = AnalyticTestFunction.monomial(0)
        report = hermite_identity_check(f, 2, 1, 0.4 + 0.3j)
        assert report.satisfied
        assert report.lhs < 1e-10

    def test_cubic_monomial(self):
        f = AnalyticTestFunction.monomial(3)
        report = hermite_identity_check(f, 3, 2, -0.8 + 0.55j)
        assert report.satisfied
        assert report.lhs < 1e-8

    def test_exponential(self):
        f = AnalyticTestFunction.exponential(1.3)
        report = hermite_identity_check(f, 4, 3, 0.9 - 0.7j)
        assert report.satisfied

    def test_point_on_node_disk_rejected(self):
        f = AnalyticTestFunction.monomial(1)
        with pytest.raises(ValueError):
            hermite_identity_check(f, 2, 1, 1.0 + 0.1j)
        with pytest.raises(ValueError):
            hermite_identity_check(f, 2, 1, 2.5 + 0.0j)

    def test_node_residues_match_the_numpy_trapezoid(self):
        # reference: the trapezoid rule on the node circles of radius 1/2 - 1/12
        z, n = 0.37 + 0.21j, 2048
        for S, T in ((2, 1), (3, 3), (5, 2)):
            for j in range(1 - S, S):
                got = _node_residues(S, T, j, z)
                assert len(got) == T
                for ell in range(T):

                    def g(w):
                        return (w - j) ** ell / (np.prod([w - k for k in range(1 - S, S)], axis=0) ** T * (w - z))

                    want = oracles.trapezoid_contour_mean(g, j, 0.5 - 1.0 / 12.0, n)
                    assert abs(got[ell] - want) <= 1e-12 * max(1.0, abs(want)), (S, T, j, ell)

    def test_a_wrong_residue_fails_the_check(self, monkeypatch):
        exact = _node_residues

        def zero_at_node_1(S, T, j, z):
            return [0.0] * T if j == 1 else exact(S, T, j, z)

        f = AnalyticTestFunction.polynomial([1.0, 2.0, 0.0, 1.0])
        assert hermite_identity_check(f, 3, 2, 0.37 + 0.21j).satisfied
        monkeypatch.setattr("periodkit.interpolation._node_residues", zero_at_node_1)
        report = hermite_identity_check(f, 3, 2, 0.37 + 0.21j)
        assert not report.satisfied
        assert report.lhs > 1e6 * report.rhs


class TestDividedDerivatives:
    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=80)
    def test_monomial_closed_form(self, d, ell):
        f = AnalyticTestFunction.monomial(d)
        z = 0.7 + 0.3j
        got = f.divided_derivative(ell, z)
        if ell > d:
            assert got == 0
        else:
            assert got == pytest.approx(
                math.comb(d, ell) * z ** (d - ell), rel=1e-12
            )

    @given(st.floats(-2, 2), st.integers(0, 6))
    @settings(max_examples=60)
    def test_exponential_closed_form(self, c, ell):
        f = AnalyticTestFunction.exponential(c)
        z = 0.2 - 0.1j
        want = c**ell * cmath.exp(c * z) / math.factorial(ell)
        assert complex(f.divided_derivative(ell, z)) == pytest.approx(want, abs=1e-12)

    def test_polynomial_matches_monomial_sum(self):
        f = AnalyticTestFunction.polynomial([2.0, 0.0, -1.0, 3.0])
        z = 0.5 + 0.25j
        direct = (
            2.0 * AnalyticTestFunction.monomial(0).divided_derivative(1, z)
            - AnalyticTestFunction.monomial(2).divided_derivative(1, z)
            + 3.0 * AnalyticTestFunction.monomial(3).divided_derivative(1, z)
        )
        assert complex(f.divided_derivative(1, z)) == pytest.approx(direct, rel=1e-12)


class TestSchwarzLemma:
    @pytest.mark.parametrize("d", [0, 1, 4, 10])
    @pytest.mark.parametrize("S,T", [(2, 1), (3, 2), (4, 3)])
    def test_monomials(self, d, S, T):
        sharp, simplified = schwarz_lemma_check(
            AnalyticTestFunction.monomial(d), S, T
        )
        assert sharp.satisfied, str(sharp)
        assert simplified.satisfied, str(simplified)

    @pytest.mark.parametrize("c", [-2.0, -0.5, 1.0, 2.0])
    def test_exponentials(self, c):
        sharp, simplified = schwarz_lemma_check(
            AnalyticTestFunction.exponential(c), 3, 2
        )
        assert sharp.satisfied
        assert simplified.satisfied

    def test_constant_is_trivial(self):
        sharp, simplified = schwarz_lemma_check(
            AnalyticTestFunction.monomial(0), 2, 1
        )
        assert sharp.satisfied
        assert simplified.satisfied

    def test_simplified_rhs_dominates_sharp_rhs(self):
        for d in (1, 3, 7):
            for S, T in ((2, 1), (3, 2), (4, 2)):
                sharp, simplified = schwarz_lemma_check(
                    AnalyticTestFunction.monomial(d), S, T
                )
                assert simplified.rhs >= sharp.rhs * (1 - 1e-12)

    def test_inner_sup_below_outer_sup(self):
        for fam in (
            AnalyticTestFunction.monomial(5),
            AnalyticTestFunction.exponential(1.7),
            AnalyticTestFunction.polynomial([1.0, 2.0, 3.0]),
        ):
            for S in (2, 3, 4):
                assert oracles.sup_on_circle(fam, 1.0) <= oracles.sup_on_circle(fam, float(S)) * (
                    1 + 1e-12
                )

    def test_exact_families_take_closed_form_maxima(self):
        sharp, simplified = schwarz_lemma_check(
            AnalyticTestFunction.monomial(10), 3, 2
        )
        assert sharp.lhs == simplified.lhs == 1.0
        assert sharp.inputs["f_S"] == 3.0**10
        sharp, _ = schwarz_lemma_check(
            AnalyticTestFunction.exponential(-2.0), 4, 1
        )
        assert sharp.lhs == math.exp(2.0)
        assert sharp.inputs["f_S"] == math.exp(8.0)

    def test_polynomial_bounds_lhs_above_and_f_S_below(self):
        f = AnalyticTestFunction.polynomial([1.0, -2.0j, 0.0, 1.0])
        sharp, simplified = schwarz_lemma_check(f, 3, 2)
        assert sharp.lhs == 4.0  # sum of |a_k|
        assert sharp.lhs >= oracles.sup_on_circle(f, 1.0)
        assert sharp.inputs["f_S"] == math.sqrt(766.0)  # 1 + 4 * 3^2 + 3^6
        assert sharp.inputs["f_S"] <= oracles.sup_on_circle(f, 3.0)
        assert sharp.satisfied and simplified.satisfied

    @pytest.mark.parametrize(
        "coeffs",
        [[1.0, 2.0, 0.0, 1.0], [0.5, -1.0, 0.25j, 2.0], [2.0, 0.0, -1.0, 3.0], [0.0, 0.0, 3.0]],
    )
    def test_parseval_f_S_is_the_l2_mean_below_the_maximum(self, coeffs):
        # the trapezoid rule on n > 2 deg points integrates |f|^2 exactly;
        # for a single term |f| is constant on the circle and both agree
        f = AnalyticTestFunction.polynomial(coeffs)
        for S in (2, 3, 4):
            sharp, _ = schwarz_lemma_check(f, S, 1)
            f_S = sharp.inputs["f_S"]
            squares = [abs(f(S * cmath.exp(2j * math.pi * k / 64))) ** 2 for k in range(64)]
            assert f_S == pytest.approx(math.sqrt(sum(squares) / 64), rel=1e-13)
            assert f_S <= oracles.sup_on_circle(f, float(S)) * (1.0 + 1e-14)


def _schwarz_monomial_reference(d, S, T):
    """Reference: the two reports as the closed forms r^d and comb(d, l) j^(d-l) of z^d gave them."""
    eps = 1.0 / 12.0
    lhs, f_S, node_max = 1.0**d, float(S) ** d, 0.0
    for j in range(1 - S, S):
        for ell in range(T):
            dd = complex(0.0) if ell > d else math.comb(d, ell) * complex(j) ** (d - ell)
            node_max = max(node_max, abs(dd) / 2.0**ell)
    ratio = math.factorial(S - 1) ** 2 * SINH_PI / (math.pi * math.factorial(2 * S - 1))
    sharp_rhs = 4.0 * ratio**T * f_S + (S * T / eps) * (SINH_PI / math.cos(math.pi * eps)) ** T * node_max
    simple_rhs = 4.0 * (10.0 / 4.0**S) ** T * f_S + 12.0 * S * T * 12.0**T * node_max
    common = {"S": S, "T": T, "f": f"z^{d}", "f_S": f_S, "node_max": node_max}
    return (
        BoundReport("schwarz_sharp", lhs, sharp_rhs, inputs={**common, "epsilon": eps}),
        BoundReport("schwarz_simplified", lhs, simple_rhs, inputs=common),
    )


class TestMonomialsArePolynomials:
    @pytest.mark.parametrize("d", [0, 3, 10])
    @pytest.mark.parametrize("S", [2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_schwarz_reports_bit_equal_to_the_closed_forms(self, d, S, T):
        # every intermediate value on the verify grid is an exact integer
        got = schwarz_lemma_check(AnalyticTestFunction.monomial(d), S, T)
        want = _schwarz_monomial_reference(d, S, T)
        assert [r.as_dict() for r in got] == [r.as_dict() for r in want]

    def test_monomial_is_its_coefficient_list(self):
        f = AnalyticTestFunction.monomial(3)
        assert f.coeffs == (0j, 0j, 0j, 1 + 0j)
        assert f.describe() == "z^3"
        assert AnalyticTestFunction.polynomial([0.0, 0.0, 1.0]).describe() == "z^2"
        assert AnalyticTestFunction.polynomial([0.0, 0.0, 3.0]).describe() == "poly(deg 2)"
        assert AnalyticTestFunction.exponential(-2.0).describe() == "exp((-2+0j)z)"

    def test_circle_bounds(self):
        assert AnalyticTestFunction.monomial(4).circle_bounds(3) == (81.0, 81.0)
        assert AnalyticTestFunction.exponential(-2.0).circle_bounds(4) == (math.exp(8.0), math.exp(8.0))
        lower, upper = AnalyticTestFunction.polynomial([1.0, -2.0j, 0.0, 1.0]).circle_bounds(3)
        assert (lower, upper) == (math.sqrt(766.0), 1.0 + 6.0 + 27.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            AnalyticTestFunction.monomial(-1)
        with pytest.raises(ValueError, match="at least one coefficient"):
            AnalyticTestFunction.polynomial([])
        f = AnalyticTestFunction.monomial(1)
        for S, T in ((0, 1), (2, 0)):
            with pytest.raises(ValueError, match="S and T must be >= 1"):
                schwarz_lemma_check(f, S, T)
            with pytest.raises(ValueError, match="S and T must be >= 1"):
                hermite_identity_check(f, S, T, 0.4 + 0.3j)


class TestSupOnCircle:
    def test_exact_circle_maxima_match_sampled_maxima(self):
        # a sample |r e^{i theta}|^d carries a few ulps of rounding per
        # factor, so "exact >= sampled" is checked up to 1e-14 relative
        functions = [AnalyticTestFunction.monomial(d) for d in range(11)]
        functions += [AnalyticTestFunction.exponential(c) for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
        for f in functions:
            for radius in (0.5, 1.0, 2.0, 3.0, 4.0):
                exact = f.circle_bounds(radius)[1]
                sampled = oracles.sup_on_circle(f, radius)
                assert exact >= sampled * (1.0 - 1e-14), (f.describe(), radius)
                assert exact == pytest.approx(sampled, rel=1e-12), (f.describe(), radius)

    def test_polynomial_circle_bound_dominates_samples(self):
        f = AnalyticTestFunction.polynomial([0.5, -1.0, 0.25j, 2.0])
        for radius in (0.5, 1.0, 3.0):
            assert f.circle_bounds(radius)[1] >= oracles.sup_on_circle(f, radius)

    @given(st.integers(0, 8), st.floats(0.5, 4.0))
    @settings(max_examples=60)
    def test_monomial_sup_is_radius_power(self, d, radius):
        f = AnalyticTestFunction.monomial(d)
        got = oracles.sup_on_circle(f, radius)
        assert got >= radius**d * (1 - 1e-9)
        assert got <= radius**d * (1 + 1e-3)

    def test_lipschitz_inflation_is_an_upper_bound(self):
        f = AnalyticTestFunction.monomial(3)
        plain = oracles.sup_on_circle(f, 2.0, samples=64)
        inflated = oracles.sup_on_circle(f, 2.0, samples=64, lipschitz=3.0 * 4.0)
        assert plain == pytest.approx(8.0, rel=1e-12)
        assert inflated >= 8.0
        assert inflated > plain
