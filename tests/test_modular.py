import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit import modular
from periodkit.heights import CurveRecord, faltings_height_silverman
from periodkit.lattice import SiegelTau, UnimodularMap, siegel_reduce
from periodkit.modular import (
    ORDER,
    InsufficientTruncationError,
    _log_tail,
    _stop_order,
    check_classical_bounds,
    delta_on_upper_half_plane,
    j_invariant,
    j_series_coefficients,
    silverman_f_extrema,
)

upper_half = st.builds(
    complex,
    st.floats(-0.5, 0.5),
    st.floats(0.9, 4.0),
)

# Reduced points with Im tau log-uniform on [sqrt(3)/2, 2000].
reduced_to_2000 = st.builds(
    lambda re, log_im: SiegelTau(re, max(math.exp(log_im), math.sqrt(1.0 - re * re))),
    st.floats(-0.5, 0.5),
    st.floats(math.log(math.sqrt(3.0) / 2.0), math.log(2000.0)),
)


def _within_tail_and_rounding(got, z, want):
    """|got.value - want| against the tail plus a float rounding bound.

    Rounding each of the N factors 1 - q^n moves its log by at most about
    2^-53, and one more 2^-53 covers the rounding of the logs and their sum,
    24 times over; forming 2 pi i z and adding it cost a few ulp of the result.
    """
    n = _stop_order(math.exp(-2.0 * math.pi * z.imag))
    rounding = 24.0 * (n + 1) * 2.0**-53 + 4.0 * math.ulp(abs(want))
    return abs(got.value - want) <= got.tail + rounding


class TestDelta:
    def test_corner_value_against_high_precision_sum(self):
        z = complex(0.5, math.sqrt(3.0) / 2.0)
        got = delta_on_upper_half_plane(z)
        assert _within_tail_and_rounding(got, z, complex(oracles.mp_log_delta(z)))
        assert math.exp(got.value.real) == pytest.approx(0.0048051383770529483, rel=1e-14)

    def test_generic_point_frozen_value(self):
        got = delta_on_upper_half_plane(complex(0.3, 0.9))
        # log of the frozen Delta = -0.0008351110596892742 + 0.0034954046608244818 i
        assert got.value.real == pytest.approx(-5.62855033643119, rel=1e-14)
        assert got.value.imag == pytest.approx(1.80531689453222, rel=1e-14)
        assert 0.0 < got.tail <= 2.0**-70

    @given(st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.13, 4.0)))
    @settings(max_examples=40, deadline=None)
    def test_tail_soundness_under_doubling(self, z):
        a = delta_on_upper_half_plane(z)
        b = _log_delta_sum(z, 2 * ORDER)
        assert abs(a.value - b) <= a.tail + 2.0 * math.ulp(abs(b))
        assert a.tail <= 2.0**-70

    @given(reduced_to_2000)
    @settings(max_examples=60, deadline=None)
    def test_within_tail_of_the_oracle_up_to_im_2000(self, tau):
        got = delta_on_upper_half_plane(tau.value)
        assert _within_tail_and_rounding(got, tau.value, complex(oracles.mp_log_delta(tau.value)))

    def test_insufficient_truncation_raises(self):
        # w/(4w+1) with w = 3i/pi: Im z ~ 0.061, |q| ~ 0.68, and the log tail
        # after ORDER factors is 2.5e-9
        w = 3j / math.pi
        z = w / (4.0 * w + 1.0)
        with pytest.raises(InsufficientTruncationError, match="after 64 factors at [|]q[|] = 0.680"):
            delta_on_upper_half_plane(z)

    @given(upper_half)
    @settings(max_examples=40, deadline=None)
    def test_quasi_modular_magnitude(self, z):
        # log|Delta(-1/z)| = 12 log|z| + log|Delta(z)|; Im(-1/z) >= 0.24 here
        lhs = delta_on_upper_half_plane(-1.0 / z).value.real
        rhs = 12.0 * math.log(abs(z)) + delta_on_upper_half_plane(z).value.real
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_quasi_modular_frozen_point(self):
        z = complex(0.3, 0.9)
        lhs = delta_on_upper_half_plane(-1.0 / z).value.real
        rhs = 12.0 * math.log(abs(z)) + delta_on_upper_half_plane(z).value.real
        assert lhs == pytest.approx(math.log(0.0019098827421012782), rel=1e-14)
        assert rhs == pytest.approx(math.log(0.0019098827421012782), rel=1e-14)

    @pytest.mark.parametrize("im", [60.0, 120.0, 1900.0, 1e6, 1e153, 1e298])
    def test_no_underflow_at_large_im(self, im):
        got = delta_on_upper_half_plane(complex(0.1, im))
        assert got.value.real == -2.0 * math.pi * im
        assert got.tail == 0.0


class TestJInvariant:
    def test_value_at_i(self):
        got = j_invariant(SiegelTau(0.0, 1.0))
        assert abs(got.value - 1728.0) < 1e-9

    def test_value_at_corner(self):
        got = j_invariant(SiegelTau(0.5, math.sqrt(3.0) / 2.0))
        assert abs(got.value) < 1e-9

    def test_value_at_2i(self):
        got = j_invariant(SiegelTau(0.0, 2.0))
        assert got.value.real == pytest.approx(66.0**3, rel=1e-12)
        assert abs(got.value - complex(oracles.mp_j(2j))) < 1e-6

    def test_series_coefficients(self):
        assert j_series_coefficients(6) == [
            1,
            744,
            196884,
            21493760,
            864299970,
            20245856256,
        ]
        assert j_series_coefficients(12) == oracles.j_series_coefficients(12)

    @given(
        upper_half,
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.integers(-10, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_unimodular_invariance(self, z, a, b, c):
        d = None
        for cand in range(-110, 111):
            if a * cand - b * c == 1:
                d = cand
                break
        if d is None:
            return
        moved = UnimodularMap(a, b, c, d).apply(z)
        back, _ = siegel_reduce(moved)
        ref, _ = siegel_reduce(z)
        lhs = j_invariant(back).value
        rhs = j_invariant(ref).value
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestClassicalBounds:
    @pytest.mark.parametrize("re,im", [(0.0, 1.0), (0.31, 1.7), (-0.5, 6.0)])
    def test_one_delta_and_the_values_of_the_separate_series(self, re, im, monkeypatch):
        tau = SiegelTau(re, im)
        j, dl = j_invariant(tau), delta_on_upper_half_plane(tau.value)
        abs_q = math.exp(-2.0 * math.pi * im)
        calls = []

        def counted(q):
            calls.append(q)
            return log_delta_over_q(q)

        log_delta_over_q = modular._log_delta_over_q
        monkeypatch.setattr(modular, "_log_delta_over_q", counted)
        r_j, r_delta = check_classical_bounds(tau)
        assert len(calls) == 1
        # both sides are the classical bounds times |q|
        assert r_j.lhs == pytest.approx((math.exp(2.0 * math.pi * im) - 1193.0) * abs_q, rel=1e-14)
        assert r_j.rhs == pytest.approx(abs(j.value) * abs_q, rel=1e-14)
        assert r_j.inputs["tail"] == pytest.approx(j.tail * abs_q, rel=1e-12)
        assert r_delta.lhs == math.exp(-1.0 / 9.0)
        assert r_delta.rhs == pytest.approx(math.exp(dl.value.real) / abs_q, rel=1e-14)
        assert 0.0 < r_delta.inputs["tail"] <= 2.0**-69 * r_delta.rhs

    @pytest.mark.parametrize("re,im", [(0.0, 1.0), (0.5, math.sqrt(3.0) / 2.0)])
    def test_special_points(self, re, im):
        r_j, r_delta = check_classical_bounds(SiegelTau(re, im))
        assert r_j.satisfied
        assert r_delta.satisfied

    def test_grid_of_500_reduced_points(self):
        rng = np.random.default_rng(0)
        count = 0
        while count < 500:
            re = rng.uniform(-0.5, 0.5)
            im = rng.uniform(math.sqrt(3.0) / 2.0, 10.0)
            if re * re + im * im < 1.0:
                continue
            r_j, r_delta = check_classical_bounds(SiegelTau(re, im))
            assert r_j.satisfied, str(r_j)
            assert r_delta.satisfied, str(r_delta)
            count += 1

    @given(reduced_to_2000)
    @settings(max_examples=60, deadline=None)
    def test_finite_height_and_delta_lower_up_to_im_2000(self, tau):
        r_j, r_delta = check_classical_bounds(tau)
        assert r_delta.satisfied and r_delta.margin > 0.06, str(r_delta)
        assert all(math.isfinite(v) for v in (r_j.lhs, r_j.rhs, r_delta.lhs, r_delta.rhs))
        record = CurveRecord("t", 2, (tau, SiegelTau(-tau.re, tau.im)), 6.0)
        h = faltings_height_silverman(record)
        want = (3.0 - float(oracles.mp_log_delta(tau.value).real) - 6.0 * math.log(tau.im)) / 12.0
        want -= math.log(2.0 * math.pi)
        assert math.isfinite(h)
        assert h == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestSilvermanExtrema:
    def test_constant_and_recorded_extrema(self):
        report = silverman_f_extrema()
        assert report.satisfied
        assert report.rhs == 2.95
        assert report.lhs == pytest.approx(2.949867352414245, abs=1e-12)
        assert report.inputs["y0"] == pytest.approx(1.1276230045064373, abs=1e-9)
        assert report.inputs["f_local_min"] == pytest.approx(
            0.0017217862564563695, rel=1e-6
        )
        assert report.inputs["f_left_endpoint"] == pytest.approx(
            0.0018281617776491326, rel=1e-6
        )
        assert report.inputs["increasing_to_3_over_pi"]
        assert report.inputs["decreasing_to_y0"]
        assert report.inputs["increasing_after_y0"]
        assert report.inputs["local_min_below_left_endpoint"]

    def test_proved_shape_agrees_with_dense_scan(self):
        # reference sweep: f on the three intervals, sampled far more finely
        # than its features, must move the way the proved flags say
        report = silverman_f_extrema()
        y0 = report.inputs["y0"]

        def f(y):
            e = np.exp(-2.0 * math.pi * y)
            return np.maximum(y**6 * e, y**6 * (1.0 - 1193.0 * e))

        for (a, b), sign, flag in (
            ((math.sqrt(3.0) / 2.0, 3.0 / math.pi), 1.0, "increasing_to_3_over_pi"),
            ((3.0 / math.pi, y0), -1.0, "decreasing_to_y0"),
            ((y0, 20.0), 1.0, "increasing_after_y0"),
        ):
            ys = np.linspace(a, b, 200_001)
            scanned = bool((sign * np.diff(f(ys)) >= -1e-15).all())
            assert scanned == report.inputs[flag] is True, flag
        assert f(np.array([y0]))[0] == pytest.approx(report.inputs["f_local_min"], rel=1e-14)


def _log_factor_sum(q, factors):
    """Reference: 24 times the sum of the first ``factors`` logs log(1 - q^n)."""
    acc = 0j
    qn = complex(1.0)
    for _ in range(factors):
        qn *= q
        acc += cmath.log(1.0 - qn)
    return 24.0 * acc


def _log_delta_sum(z, factors):
    """Reference: 2 pi i z plus _log_factor_sum."""
    return 2j * math.pi * z + _log_factor_sum(cmath.exp(2j * math.pi * z), factors)


def _j_rebuilding_sigma3(z):
    """Reference: E4 from a divisor-sum sieve rebuilt on every call."""
    order = 64
    sig = [0] * (order + 1)
    for d in range(1, order + 1):
        for m in range(d, order + 1, d):
            sig[m] += d * d * d
    q = cmath.exp(2j * math.pi * z)
    acc = complex(1.0)
    qn = complex(1.0)
    for n in range(1, order + 1):
        qn *= q
        acc += 240.0 * sig[n] * qn
    return acc**3 * cmath.exp(-_log_delta_sum(z, 64))


def _early_stop_grid():
    """|Re tau| = 1/2 and |tau| = 1 edges, Re tau in {0, +-1e-15}, Im tau up to 40."""
    points = []
    for re in (-0.5, 0.5, 0.0, 1e-15, -1e-15):
        im0 = math.sqrt(1.0 - re * re)
        points += [complex(re, im0 + (40.0 - im0) * k / 160) for k in range(161)]
    for k in range(121):
        t = math.pi / 3.0 + (math.pi / 3.0) * k / 120
        points.append(complex(math.cos(t), math.sin(t)))
    return points


class TestEarlyStop:
    def test_values_equal_full_order_product_on_grid(self, bundled_records):
        # the log of the 64-factor product, summed term by term
        points = _early_stop_grid() + [t.value for r in bundled_records for t in r.embeddings]
        for z in points:
            assert delta_on_upper_half_plane(z).value == _log_delta_sum(z, 64), z

    def test_j_equals_sigma3_rebuilding_path(self, bundled_records):
        taus = [t for r in bundled_records for t in r.embeddings]
        taus += [SiegelTau(z.real, z.imag) for z in _early_stop_grid()[::4]]
        for tau in taus:
            assert j_invariant(tau).value == _j_rebuilding_sigma3(tau.value), tau

    @pytest.mark.parametrize("z", [1j, complex(0.5, math.sqrt(3.0) / 2.0)])
    def test_within_tail_of_long_product(self, z):
        got = delta_on_upper_half_plane(z)
        want = complex(oracles.mp_log_delta(z))
        assert _within_tail_and_rounding(got, z, want)
        # the old product rounded 1 - q^n before the 24th power and was about
        # 19 ulp from the exact value at i; the log sum is within 4
        assert abs(got.value - want) <= 4.0 * math.ulp(abs(want))

    def test_sum_runs_to_the_cap_off_the_fundamental_domain(self):
        # Im z = 0.13, |q| ~ 0.44: the first order with log tail <= 2^-70 is ORDER
        z = complex(0.2, 0.13)
        abs_q = math.exp(-2.0 * math.pi * z.imag)
        assert _stop_order(abs_q) == ORDER
        assert _log_tail(abs_q, ORDER - 1) > 2.0**-70
        got = delta_on_upper_half_plane(z)
        assert got.tail <= 2.0**-70
        assert got.value == _log_delta_sum(z, ORDER)
        assert _within_tail_and_rounding(got, z, complex(oracles.mp_log_delta(z)))

    def test_tail_is_for_the_factors_multiplied(self):
        z = complex(0.5, math.sqrt(3.0) / 2.0)
        abs_q = math.exp(-2.0 * math.pi * z.imag)
        n = _stop_order(abs_q)
        assert n < 64
        got = delta_on_upper_half_plane(z)
        assert got.tail == pytest.approx(24.0 * abs_q ** (n + 1) / (1.0 - abs_q) ** 2, rel=1e-12)
        assert 0.0 < got.tail <= 2.0**-70

    @pytest.mark.parametrize(
        "abs_q", [0.0, 5e-324, 1e-200, 1e-5, 0.0043, 0.01, 0.1, 0.5, 0.6, 0.9, 1.0 - 2.0**-53, 1.0]
    )
    def test_stop_order_is_the_first_order_below_two_pow_minus_70(self, abs_q):
        def log_tail(n):
            return 24.0 * abs_q ** (n + 1) / (1.0 - abs_q) ** 2 if abs_q < 1.0 else math.inf

        want = next((n for n in range(1, 64) if log_tail(n) <= 2.0**-70), 64)
        assert _stop_order(abs_q) == want
