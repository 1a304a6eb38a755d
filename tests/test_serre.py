import math

import pytest

import oracles
from periodkit import serre
from periodkit.isogeny import _excess
from periodkit.serre import H_of_p, SerreThreshold, find_threshold


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
    """f itself lives in the extended-precision oracle; find_threshold gives its float values."""

    def test_values_at_threshold_pair(self):
        th = find_threshold()
        assert th.f_at_p_star == pytest.approx(1.0000000373743587, rel=1e-12)
        assert th.f_at_p_star_plus_1 < 1.0
        assert float(oracles.mp_serre_f(3094027)) == pytest.approx(1.0000000373743587, rel=1e-12)
        assert float(oracles.mp_serre_f(3094028)) < 1.0

    def test_matches_extended_precision(self):
        th = find_threshold()
        assert th.f_at_p_star == pytest.approx(float(oracles.mp_serre_f(th.p_star)), abs=1e-15)
        assert th.f_at_p_star_plus_1 == pytest.approx(float(oracles.mp_serre_f(th.p_star + 1)), abs=1e-15)
        # below p*, where H is at its floor too, f is 1 - excess/p with the solver's excess
        excess = _excess(2.0, 1000.0)
        for p in (10**3, 10**6):
            assert 1.0 - excess(p) / p == pytest.approx(float(oracles.mp_serre_f(p)), rel=1e-14)

    def test_strictly_decreasing_on_dyadic_grid(self):
        p = 1000.0
        prev = oracles.mp_serre_f(p)
        while p < 1e9:
            p *= 2.0
            cur = oracles.mp_serre_f(p)
            assert cur < prev
            prev = cur


def _find_threshold_by_integer_bisection():
    """Reference: the integer bisection on [2, 10^8] of the extended-precision f."""
    lo, hi = 2, 10**8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if oracles.mp_serre_f(mid) >= 1:
            lo = mid
        else:
            hi = mid
    return SerreThreshold(lo, float(oracles.mp_serre_f(lo)), float(oracles.mp_serre_f(lo + 1)))


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
        th, ref = find_threshold(), _find_threshold_by_integer_bisection()
        assert th.p_star == ref.p_star
        assert th.f_at_p_star == pytest.approx(ref.f_at_p_star, abs=1e-15)
        assert th.f_at_p_star_plus_1 == pytest.approx(ref.f_at_p_star_plus_1, abs=1e-15)

    def test_h_is_at_its_floor_through_p_star_plus_1(self):
        p = find_threshold().p_star
        assert H_of_p(p + 1) == 1000.0
        sp, lp = math.sqrt(p + 1), math.log(p + 1)
        assert math.pi * sp / 6.0 + lp + 7.0 * lp * lp / (4.0 * sp) + 2.95 == pytest.approx(939.1, abs=0.05)

    def test_raises_once_h_leaves_its_floor(self, monkeypatch):
        # 70 in place of 2.95 lifts the analytic branch of H to about 1006 at p* + 1
        monkeypatch.setattr(serre, "SILVERMAN_CONSTANT", 70.0)
        with pytest.raises(RuntimeError, match="above its floor"):
            find_threshold()

    def test_threshold_type_validates_bracket(self):
        with pytest.raises(ValueError):
            SerreThreshold(10, 0.9, 0.8)
