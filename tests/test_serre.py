import math

import pytest

import oracles
from periodkit.serre import H_of_p, SerreThreshold, f_of_p, find_threshold


class TestJLogUpper:
    def test_p4_direct_arithmetic(self):
        want = 4.0 * math.pi + 6.0 * math.log(4.0) + 21.0 * math.log(4.0) ** 2 / 2.0
        assert oracles.j_log_upper(4) == pytest.approx(want, rel=1e-15)

    def test_threshold_prime_recorded_value(self):
        assert oracles.j_log_upper(3094027) == pytest.approx(11144.362954882506, rel=1e-12)


class TestHOfP:
    def test_floor_active_at_threshold(self):
        assert H_of_p(3094027) == 1000.0

    def test_crossover_is_bracketed(self):
        # dyadic bisection for the p where the analytic branch reaches 1000
        lo, hi = 3094027.0, 10**7 * 1.0
        assert H_of_p(lo) == 1000.0 and H_of_p(hi) > 1000.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if H_of_p(mid) <= 1000.0:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(3515750.2904932452, rel=1e-9)

    def test_matches_j_bound_identity_past_crossover(self):
        for p in (3.6e6, 4e6, 1e7, 1e8):
            want = oracles.j_log_upper(p) / 12.0 + 2.95 + 0.5 * math.log(p)
            assert H_of_p(p) == pytest.approx(want, abs=1e-9)


class TestFOfP:
    def test_values_at_threshold_pair(self):
        assert f_of_p(3094027) == pytest.approx(1.0000000373743587, rel=1e-12)
        assert f_of_p(3094028) < 1.0

    def test_matches_extended_precision(self):
        for p in (3094027, 3094028, 10**6, 10**8):
            assert f_of_p(p) == pytest.approx(float(oracles.mp_serre_f(p)), rel=1e-12)

    def test_strictly_decreasing_on_dyadic_grid(self):
        p = 1000.0
        prev = f_of_p(p)
        while p < 1e9:
            p *= 2.0
            cur = f_of_p(p)
            assert cur < prev
            prev = cur


def _find_threshold_by_integer_bisection():
    """Reference: the integer bisection on [2, 10^8] that find_threshold replaced."""
    lo, hi = 2, 10**8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f_of_p(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return SerreThreshold(lo, f_of_p(lo), f_of_p(lo + 1))


class TestFindThreshold:
    def test_integer_threshold(self):
        th = find_threshold()
        assert th.p_star == 3094027
        assert th.f_at_p_star > 1.0 > th.f_at_p_star_plus_1

    def test_extended_precision_recomputation_agrees(self):
        th = find_threshold()
        assert float(oracles.mp_serre_f(th.p_star)) > 1.0
        assert float(oracles.mp_serre_f(th.p_star + 1)) < 1.0

    def test_equals_the_integer_bisection(self):
        assert find_threshold() == _find_threshold_by_integer_bisection()

    def test_threshold_type_validates_bracket(self):
        with pytest.raises(ValueError):
            SerreThreshold(10, 0.9, 0.8)
