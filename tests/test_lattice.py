import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from periodkit.cli import _random_reduced_tau as random_reduced_tau
from periodkit.cli import _random_unimodular as random_unimodular
from periodkit.lattice import (
    SiegelTau,
    avoidance_minimum,
    rho_inverse_squared,
    shortest_vector,
    siegel_reduce,
    smith_index,
)

reduced_taus = st.builds(
    SiegelTau,
    st.floats(-0.499, 0.499),
    st.floats(1.001, 4.0),
)


def scaled(tau: complex, *periods: complex) -> list[complex]:
    """Periods of Z + Z tau scaled by 1/sqrt(Im tau), so |z| is the norm |z|^2 / Im tau."""
    return [w / math.sqrt(tau.imag) for w in periods]


class TestSiegelReduce:
    def test_half_plus_half_i_reduces_to_i(self):
        t, m = siegel_reduce(0.5 + 0.5j)
        assert abs(t.value - 1j) < 1e-12
        assert m.apply(0.5 + 0.5j) == pytest.approx(1j, abs=1e-12)

    def test_generic_point_matches_word_enumeration(self):
        t, m = siegel_reduce(5.3 + 0.2j)
        canon, word = oracles.siegel_bfs(5.3 + 0.2j)
        assert abs(t.value - canon) < 1e-10
        assert (m.a, m.b, m.c, m.d) == word
        assert (m.a, m.b, m.c, m.d) == (2, -11, 1, -5)
        assert t.re == pytest.approx(-4.0 / 13.0, abs=1e-12)
        assert t.im == pytest.approx(20.0 / 13.0, abs=1e-12)

    @given(reduced_taus)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_reduced_input(self, tau):
        t, m = siegel_reduce(tau.value)
        assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)
        assert abs(t.value - tau.value) < 1e-12

    @given(reduced_taus, st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_under_scramble(self, tau, seed):
        scrambled = random_unimodular(random.Random(seed)).apply(tau.value)
        t, _ = siegel_reduce(scrambled)
        assert abs(t.value - tau.value) < 1e-10

    def test_boundary_tie_breaks(self):
        t, _ = siegel_reduce(-0.5 + 1.3j)
        assert t.re == 0.5
        # both lie on the orbit of 5/13 + 12/13 i, on the unit circle, whose
        # representative keeps nonnegative real part
        for z in (-0.5 + 0.75j, 0.5 + 0.75j):
            t, m = siegel_reduce(z)
            assert (t.re, t.im) == (0.38461538461538464, 0.9230769230769231)
            assert m.apply(z) == pytest.approx(t.value, abs=1e-15)
        # the reduction of 0.5 + 3/8 i passes -7/25 + 24/25 i on the unit circle
        t, _ = siegel_reduce(0.5 + 0.375j)
        assert (t.re, t.im) == (0.28, 0.96)

    @pytest.mark.parametrize(
        "re,im", [(math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 2.0)]
    )
    def test_non_finite_tau_rejected(self, re, im):
        with pytest.raises(ValueError, match="not finite"):
            SiegelTau(re, im)

    def test_equals_the_exact_reduction_bit_for_bit(self):
        # scrambles as in the lattice suite, plus points near the real axis and the cusp
        rng = random.Random(0)
        points = [5.3 + 0.2j, 0.5 + 0.5j, 0.3 + 1e-6j, 1e-9j, 0.1 + 1e298j]
        while len(points) < 300:
            points.append(random_unimodular(rng).apply(random_reduced_tau(rng).value))
        for z in points:
            t, m = siegel_reduce(z)
            x, y = oracles.exact_siegel_reduce(z.real, z.imag)
            assert (t.re, t.im) == (float(x), float(y)), z
            assert m.apply(z) == pytest.approx(t.value, rel=1e-6), z

    @given(
        st.floats(-1e300, 1e300),
        st.floats(5e-324, allow_infinity=False, allow_subnormal=True),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_the_exact_reduction_over_the_double_range(self, re_z, im_z):
        x, y = oracles.exact_siegel_reduce(re_z, im_z)
        try:
            want = (float(x), float(y))
        except OverflowError:
            with pytest.raises(ValueError, match="too close to the real axis"):
                siegel_reduce(complex(re_z, im_z))
            return
        t, _ = siegel_reduce(complex(re_z, im_z))
        assert (t.re, t.im) == want

    @pytest.mark.parametrize(
        "z, re_tau, im_tau",
        [
            (0.3 + 1e-12j, -0.3975511688968056, 9999999998.767405),
            (0.3 + 1e-20j, -0.3104354650152022, 811295725944.7778),
            (0.3 + 5e-324j, -0.4999999999999997, 6.237000967296e290),
            (0.1 + 1e-300j, 0.4999999999999999, 7.703719777548943e266),
        ],
    )
    def test_point_near_the_real_axis_is_reduced_exactly(self, z, re_tau, im_tau):
        x, y = oracles.exact_siegel_reduce(z.real, z.imag)
        t, _ = siegel_reduce(z)
        assert (t.re, t.im) == (float(x), float(y)) == (re_tau, im_tau)

    @pytest.mark.parametrize("z", [1e-320j, 5e-324j, -0.0 + 1e-310j])
    def test_overflowing_s_step_is_an_error(self, z):
        # Im tau = 1/Im z exceeds the largest double
        with pytest.raises(ValueError, match=f"Im z = {z.imag} is too close to the real axis"):
            siegel_reduce(z)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            siegel_reduce(2.0)
        with pytest.raises(ValueError, match="not positive"):
            siegel_reduce(1 - 0.5j)


class TestRhoAndShortestVector:
    def test_rho_at_i_is_one(self):
        assert rho_inverse_squared(SiegelTau(0.0, 1.0)) == 1.0

    @given(reduced_taus)
    @settings(max_examples=40, deadline=None)
    def test_rho_matches_enumeration(self, tau):
        y = tau.im
        best = min(
            abs(a + b * tau.value) ** 2 / y
            for a in range(-20, 21)
            for b in range(-20, 21)
            if (a, b) != (0, 0)
        )
        assert rho_inverse_squared(tau) == pytest.approx(1.0 / best, rel=1e-12)

    def test_tau_2i_shortest(self):
        coeffs, norm = shortest_vector(*scaled(2j, 1.0, 2j))
        assert norm * norm == pytest.approx(0.5, abs=1e-12)
        assert tuple(abs(c) for c in coeffs) == (1, 0)

    @given(reduced_taus)
    @settings(max_examples=40, deadline=None)
    def test_rho_consistency_with_svp(self, tau):
        _, norm = shortest_vector(*scaled(tau.value, 1.0, tau.value))
        assert rho_inverse_squared(tau) * norm * norm == pytest.approx(1.0, abs=1e-12)

    def test_skewed_g1_basis_against_bruteforce(self):
        # bases (1 + a tau, b + (1 + a b) tau) of Z + Z tau, so 1 has coefficients (1 + a b, -a)
        rng = np.random.default_rng(3)
        for _ in range(20):
            tau = random_reduced_tau(rng).value
            a, b = (int(v) for v in rng.integers(-4, 5, size=2))
            w1, w2 = 1.0 + a * tau, b + (1 + a * b) * tau
            periods = scaled(tau, w1, w2)
            coeffs, norm = shortest_vector(*periods)
            gram = [[(p.conjugate() * q).real for q in periods] for p in periods]
            # the Gram entries reach ~5e3, so the oracle's n^T G n cancels to ~1e-12
            _, expected_sq = oracles.svp_bruteforce(gram, box=20)
            assert norm * norm == pytest.approx(expected_sq, rel=1e-10)
            assert norm * norm == pytest.approx(1.0 / tau.imag, rel=1e-12)  # |1|^2 / Im tau
            x, y = coeffs
            assert abs(x * w1 + y * w2) == pytest.approx(norm * math.sqrt(tau.imag), rel=1e-12)

    # the second period reaches |1 + a b| |tau| ~ 1.5e4: no search box, a few Gauss steps
    @pytest.mark.parametrize("a, b", [(10, -7), (-100, 99), (300, 41)])
    def test_far_skewed_g1_basis(self, a, b):
        tau = complex(0.3, 1.2)
        w1, w2 = 1.0 + a * tau, b + (1 + a * b) * tau
        coeffs, norm = shortest_vector(*scaled(tau, w1, w2))
        assert coeffs in ((1 + a * b, -a), (-1 - a * b, a))
        assert norm * norm == pytest.approx(1.0 / tau.imag, rel=1e-9)

    def test_shortest_vector_at_im_1e13(self):
        tau = complex(0.3, 1e13)
        coeffs, norm = shortest_vector(*scaled(tau, 1.0, tau))
        assert coeffs in ((1, 0), (-1, 0))
        assert norm == pytest.approx(1.0 / math.sqrt(1e13), rel=1e-15)

    def test_full_rank_far_from_the_unit_period(self):
        # the periods differ in size by 1e13; their independence is judged on the angle
        coeffs, norm = shortest_vector(1.0, complex(0.3, 1e13))
        assert coeffs in ((1, 0), (-1, 0)) and norm == 1.0

    @pytest.mark.parametrize(
        "w1, w2", [(1.0, 2.0), (1.0, 0.0), (0.0, 1j), (1j, -3j), (1.0, complex(1.0, 1e-13)), (1e-300, 1e300)]
    )
    def test_dependent_periods_are_refused(self, w1, w2):
        with pytest.raises(ValueError, match="full real rank"):
            shortest_vector(w1, w2)

    @pytest.mark.parametrize("w1, w2", [(math.nan, 1j), (1.0, complex(0.0, math.inf)), (math.inf, 1j)])
    def test_non_finite_periods_are_refused(self, w1, w2):
        with pytest.raises(ValueError, match="periods must be finite"):
            shortest_vector(w1, w2)


class TestAvoidanceMinimum:
    def test_diagonal_identity_and_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tau = random_reduced_tau(rng).value
            d = avoidance_minimum(tau, [1.0, 1.0])
            rho = 1.0 / math.sqrt(tau.imag)
            assert d == pytest.approx(rho / math.sqrt(2.0), abs=1e-10)
            brute = oracles.avoidance_bruteforce(
                [(1, 0), (tau, 0), (0, 1), (0, tau)],
                [[1 / tau.imag, 0], [0, 1 / tau.imag]],
                (1, 1),
                box=3,
            )
            assert d == pytest.approx(brute, abs=1e-10)

    # z -> conj(z) maps E_tau x E_tau isometrically onto E_{-conj tau} x E_{-conj tau}, and C v onto C conj(v);
    # a line with a non-real slope meets the lattice in rank 2 only where the slope is a CM multiplication
    @pytest.mark.parametrize(
        "tau, line",
        [
            (complex(0.2, 1.3), [1.0, 1.0]),
            (complex(-0.4, 2.1), [2.0, -3.0]),
            (1j, [1.0, 1j]),
            (2j, [1.0 + 2j, 2.0]),
            (complex(0.5, math.sqrt(3.0) / 2.0), [1.0, complex(0.5, math.sqrt(3.0) / 2.0)]),
            (complex(0.5, math.sqrt(7.0) / 2.0), [complex(0.5, math.sqrt(7.0) / 2.0), 3.0]),
        ],
    )
    def test_invariant_under_conjugation(self, tau, line):
        d = avoidance_minimum(tau, line)
        d_conj = avoidance_minimum(-tau.conjugate(), [complex(c).conjugate() for c in line])
        assert d == pytest.approx(d_conj, rel=1e-12)

    def test_graph_lines_have_constant_scaled_minimum(self):
        # distance off the graph of multiplication by k is rho/sqrt(1+k^2)
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            tau = random_reduced_tau(rng).value
            d = avoidance_minimum(tau, [1.0, float(k)])
            expected = 1.0 / math.sqrt((1 + k * k) * tau.imag)
            assert d == pytest.approx(expected, abs=1e-10)

    def test_minkowski_style_ceiling(self):
        # scaled squared avoidance minimum never exceeds the hexagonal value
        rng = np.random.default_rng(7)
        for _ in range(10):
            tau = random_reduced_tau(rng).value
            for line, x_of_b in (([1.0, 0.0], 1.0), ([1.0, 1.0], 2.0), ([1.0, 2.0], 5.0)):
                d = avoidance_minimum(tau, line)
                assert x_of_b * d * d <= 2.0 / math.sqrt(3.0) + 1e-12

    def test_line_minimum_dominates_transverse_in_line_minimum(self):
        # the avoidance minimum of one line is at most the shortest lattice
        # point on any transverse line
        rng = np.random.default_rng(9)
        tau = random_reduced_tau(rng).value
        d = avoidance_minimum(tau, [1.0, 1.0])
        anti = min(
            math.sqrt(2.0 * abs(a + b * tau) ** 2 / tau.imag)
            for a in range(-4, 5)
            for b in range(-4, 5)
            if (a, b) != (0, 0)
        )
        assert d <= anti + 1e-12

    def test_diagonal_avoidance_at_im_1e6(self):
        d = avoidance_minimum(1e6j, [1.0, 1.0])
        assert d == pytest.approx(1.0 / math.sqrt(2e6), rel=1e-15)

    def test_invariant_under_sl2z_on_unreduced_tau(self):
        # Z + Z g(tau) is Z + Z tau divided by c tau + d, and Im g(tau) = Im tau / |c tau + d|^2,
        # so z -> z / (c tau + d) is an isometry of the products that fixes every line
        rng = random.Random(1)
        for _ in range(16):
            tau = random_reduced_tau(rng).value
            moved = random_unimodular(rng).apply(tau)
            for line in ([1.0, 1.0], [1.0, 2.0], [2.0, -1.0]):
                assert avoidance_minimum(moved, line) == pytest.approx(avoidance_minimum(tau, line), rel=1e-12)
            assert avoidance_minimum(moved, [1.0, 2.0]) == pytest.approx(1.0 / math.sqrt(5 * tau.imag), rel=1e-12)

    @given(st.floats(-0.5, 0.5), st.floats(math.log(math.sqrt(3.0) / 2.0), math.log(1e6)))
    @settings(max_examples=100, deadline=None)
    def test_diagonal_identity_up_to_im_1e6(self, re, log_im):
        im = math.exp(log_im)
        assume(re * re + im * im >= 1.0)
        tau = SiegelTau(re, im)
        d = avoidance_minimum(tau.value, [1.0, 1.0])
        rho = 1.0 / math.sqrt(rho_inverse_squared(tau))
        assert d == pytest.approx(rho / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("line", [[0.0, 0.0], [0j, -0.0], [math.nan, 1.0], [1.0, complex(0.0, math.inf)]])
    def test_zero_or_non_finite_vector_is_refused(self, line):
        with pytest.raises(ValueError, match="finite nonzero vector of C\\^2"):
            avoidance_minimum(1j, line)

    @pytest.mark.parametrize("tau", [0.5j, 2j, 1e298j])
    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_any_nonzero_multiple_spans_the_same_line(self, tau, scale):
        # at Im tau = 1e298, H v for v = (1e-30, 1e-30) is below the smallest double
        assert avoidance_minimum(tau, [scale, scale]) == avoidance_minimum(tau, [1.0, 1.0])
        assert avoidance_minimum(tau, [scale, -2j * scale]) == pytest.approx(avoidance_minimum(tau, [1.0, -2j]), rel=1e-15)

    @pytest.mark.parametrize("line", [[1.0], [1.0, 1.0, 1.0]])
    def test_vector_outside_c2_is_refused(self, line):
        with pytest.raises(ValueError):
            avoidance_minimum(1j, line)

    @pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_tau_is_refused(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            avoidance_minimum(tau, [1.0, 1.0])

    @pytest.mark.parametrize("tau", [0.5, complex(0.3, -1.0), complex(0.0, -0.0)])
    def test_tau_off_the_upper_half_plane_is_refused(self, tau):
        with pytest.raises(ValueError, match=f"Im tau = {complex(tau).imag} is not positive"):
            avoidance_minimum(tau, [1.0, 1.0])

    @pytest.mark.parametrize("tau", [1j, complex(0.3, 1.2), 2.5j])
    def test_irrational_line_is_refused(self, tau):
        # the line (1, sqrt 2) meets the lattice only in 0, so its projection is dense
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not intersect the lattice in a rank-2 subgroup"):
            avoidance_minimum(tau, [1.0, math.sqrt(2.0)])
        assert time.perf_counter() - start < 1.0


class TestSmithIndex:
    def test_identity(self):
        assert smith_index([[1, 0], [0, 1]]) == (1, True)

    @given(st.integers(1, 50))
    def test_diag_one_n(self, n):
        assert smith_index([[1, 0], [0, n]]) == (n, True)

    def test_diag_two_two(self):
        assert smith_index([[2, 0], [0, 2]]) == (4, False)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            smith_index([[1, 1], [1, 1]])

    @given(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
    )
    @settings(max_examples=100)
    def test_index_is_absolute_determinant(self, a, b, c, d):
        det = a * d - b * c
        if det == 0:
            return
        idx, _ = smith_index([[a, b], [c, d]])
        assert idx == abs(det)
