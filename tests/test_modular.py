import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit import modular
from periodkit.lattice import EllipticLattice, SiegelTau, UnimodularMap, siegel_reduce
from periodkit.modular import (
    ORDER,
    TAIL_TOLERANCE,
    InsufficientTruncationError,
    _delta_product_tail,
    _stop_order,
    check_classical_bounds,
    delta_on_upper_half_plane,
    delta_tau,
    j_invariant,
    j_series_coefficients,
    silverman_f_extrema,
)

upper_half = st.builds(
    complex,
    st.floats(-0.5, 0.5),
    st.floats(0.9, 4.0),
)


class TestDelta:
    def test_corner_value_against_high_precision_sum(self):
        corner = SiegelTau(0.5, math.sqrt(3.0) / 2.0)
        got = delta_tau(corner)
        want = oracles.mp_delta(complex(corner.re, corner.im))
        assert got.value.real == pytest.approx(float(want.real), abs=1e-15)
        assert got.value.imag == pytest.approx(float(want.imag), abs=1e-15)
        assert abs(got.value) == pytest.approx(0.0048051383770529483, rel=1e-12)

    def test_generic_point_frozen_value(self):
        got = delta_on_upper_half_plane(complex(0.3, 0.9))
        assert got.value.real == pytest.approx(-0.0008351110596892742, rel=1e-12)
        assert got.value.imag == pytest.approx(0.0034954046608244818, rel=1e-12)
        assert got.tail < 1e-12

    def test_two_pi_normalization_scale(self):
        z = complex(0.1, 1.2)
        plain = delta_on_upper_half_plane(z).value
        scaled = delta_on_upper_half_plane(z, normalization="two_pi_12").value
        assert scaled == pytest.approx(plain * (2 * math.pi) ** 12, rel=1e-14)

    @given(upper_half)
    @settings(max_examples=40, deadline=None)
    def test_tail_soundness_under_doubling(self, z):
        a = delta_on_upper_half_plane(z)
        b = _delta_product(z, 2 * ORDER)
        assert abs(a.value - b) <= max(a.tail, 1e-18)
        assert abs(a.value - b) < TAIL_TOLERANCE

    def test_insufficient_truncation_raises(self):
        # w/(4w+1) with w = 3i/pi: Im z ~ 0.061, and the tail at ORDER
        # factors is 1.1e-4 (ramanujan) or 4.1e5 (two_pi_12)
        w = 3j / math.pi
        z = w / (4.0 * w + 1.0)
        for normalization in ("ramanujan", "two_pi_12"):
            with pytest.raises(InsufficientTruncationError, match="Im z = 0.0612517"):
                delta_on_upper_half_plane(z, normalization=normalization)

    @given(upper_half)
    @settings(max_examples=40, deadline=None)
    def test_quasi_modular_magnitude(self, z):
        lhs = abs(delta_on_upper_half_plane(-1.0 / z).value)
        rhs = abs(z) ** 12 * abs(delta_on_upper_half_plane(z).value)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_quasi_modular_frozen_point(self):
        z = complex(0.3, 0.9)
        lhs = abs(delta_on_upper_half_plane(-1.0 / z).value)
        rhs = abs(z) ** 12 * abs(delta_on_upper_half_plane(z).value)
        assert lhs == pytest.approx(0.0019098827421012782, rel=1e-12)
        assert rhs == pytest.approx(0.0019098827421012782, rel=1e-12)


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
        back, _ = siegel_reduce(EllipticLattice(1.0, moved))
        ref, _ = siegel_reduce(EllipticLattice(1.0, z))
        lhs = j_invariant(back).value
        rhs = j_invariant(ref).value
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestClassicalBounds:
    @pytest.mark.parametrize("re,im", [(0.0, 1.0), (0.31, 1.7), (-0.5, 6.0)])
    def test_one_delta_and_the_values_of_the_separate_series(self, re, im, monkeypatch):
        tau = SiegelTau(re, im)
        j, dl = j_invariant(tau), delta_tau(tau)
        calls = []

        def counted(z, normalization="ramanujan"):
            calls.append(z)
            return delta_on_upper_half_plane(z, normalization)

        monkeypatch.setattr(modular, "delta_on_upper_half_plane", counted)
        r_j, r_delta = check_classical_bounds(tau)
        assert len(calls) == 1
        assert (r_j.rhs, r_j.inputs["tail"]) == (abs(j.value), j.tail)
        assert (r_delta.rhs, r_delta.inputs["tail"]) == (abs(dl.value), dl.tail)

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


def _delta_product(z, factors, normalization="ramanujan"):
    """Reference: q times the first ``factors`` factors (1 - q^n)^24."""
    q = cmath.exp(2j * math.pi * z)
    prod = complex(1.0)
    qn = complex(1.0)
    for _ in range(factors):
        qn *= q
        prod *= (1.0 - qn) ** 24
    value = q * prod
    if normalization == "two_pi_12":
        value *= (2.0 * math.pi) ** 12
    return value


def _delta_full_order(z, normalization="ramanujan"):
    """Reference: the fixed 64-factor product that ran before the early stop."""
    return _delta_product(z, 64, normalization)


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
    return acc**3 / _delta_full_order(z)


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
        points = _early_stop_grid() + [t.value for r in bundled_records for t in r.embeddings]
        for z in points:
            for normalization in ("ramanujan", "two_pi_12"):
                got = delta_on_upper_half_plane(z, normalization=normalization).value
                assert got == _delta_full_order(z, normalization), (z, normalization)

    def test_j_equals_sigma3_rebuilding_path(self, bundled_records):
        taus = [t for r in bundled_records for t in r.embeddings]
        taus += [SiegelTau(z.real, z.imag) for z in _early_stop_grid()[::4]]
        for tau in taus:
            assert j_invariant(tau).value == _j_rebuilding_sigma3(tau.value), tau

    @pytest.mark.parametrize("z", [1j, complex(0.5, math.sqrt(3.0) / 2.0)])
    def test_within_tail_of_long_product(self, z):
        # The oracle runs in 53-bit arithmetic like the float product: both
        # round 1 - q^n before the 24th power, which alone puts either about
        # 19 ulp from the exact value at i.
        got = delta_on_upper_half_plane(z)
        with mpmath.workprec(53):
            want = complex(oracles.mp_delta(z))
        assert abs(got.value - want) <= got.tail + 4.0 * math.ulp(abs(got.value))

    def test_missed_tolerance_runs_to_the_cap(self):
        # w/(2w+1) with w = 3i/pi: Im z ~ 0.205, off the fundamental domain.
        # The early stop leaves a tail of 4.2e-11 in the (2 pi)^12
        # normalization, so the product runs on to ORDER factors.
        w = 3j / math.pi
        z = w / (2.0 * w + 1.0)
        abs_q = math.exp(-2.0 * math.pi * z.imag)
        n = _stop_order(abs_q)
        assert n < ORDER
        scale = (2.0 * math.pi) ** 12
        assert scale * abs(_delta_product(z, n)) * _delta_product_tail(abs_q, n) > TAIL_TOLERANCE
        got = delta_on_upper_half_plane(z, normalization="two_pi_12")
        assert got.tail <= TAIL_TOLERANCE
        assert got.value == _delta_full_order(z, "two_pi_12")

    def test_tail_is_for_the_factors_multiplied(self):
        z = complex(0.5, math.sqrt(3.0) / 2.0)
        abs_q = math.exp(-2.0 * math.pi * z.imag)
        n = _stop_order(abs_q)
        assert n < 64
        got = delta_on_upper_half_plane(z)
        assert got.tail == pytest.approx(abs(got.value) * _delta_product_tail(abs_q, n), rel=1e-12)
        assert 0.0 < got.tail <= 2.0**-70 * abs(got.value)

    @pytest.mark.parametrize(
        "abs_q", [0.0, 5e-324, 1e-200, 1e-5, 0.0043, 0.01, 0.1, 0.5, 0.6, 0.9, 1.0 - 2.0**-53]
    )
    def test_stop_order_is_the_first_order_below_two_pow_minus_70(self, abs_q):
        want = next((n for n in range(1, 64) if _delta_product_tail(abs_q, n) <= 2.0**-70), 64)
        assert _stop_order(abs_q) == want
