import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from periodkit.cli import _product_torus as product_torus
from periodkit.cli import _random_reduced_tau as random_reduced_tau
from periodkit.lattice import (
    DEFAULT_TOL,
    PolarizedTorus,
    SiegelTau,
    UnimodularMap,
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


def g1_torus(tau: complex) -> PolarizedTorus:
    return PolarizedTorus(1, [[1.0, tau]], [[1.0 / tau.imag]])


def random_unimodular(rng: np.random.Generator) -> np.ndarray:
    """4x4 integer matrix of determinant +-1: eight elementary column moves, then a permutation."""
    U = np.eye(4, dtype=np.int64)
    for _ in range(8):
        i, j = rng.choice(4, 2, replace=False)
        U[:, i] += int(rng.integers(-2, 3)) * U[:, j]
    return U[:, rng.permutation(4)]


def conjugate_torus(torus: PolarizedTorus) -> PolarizedTorus:
    """Entrywise complex conjugate of periods and form; an isometric twin."""
    return PolarizedTorus(torus.g, torus.periods.conj(), torus.riemann_form.conj())


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

    @given(reduced_taus, st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_under_scramble(self, tau, a, b, c):
        d = None
        for cand in range(-80, 81):
            if a * cand - b * c == 1:
                d = cand
                break
        if d is None:
            return
        scrambled = UnimodularMap(a, b, c, d).apply(tau.value)
        t, _ = siegel_reduce(scrambled)
        assert abs(t.value - tau.value) < 1e-10

    def test_boundary_tie_breaks(self):
        t, _ = siegel_reduce(-0.5 + 1.3j)
        assert t.re == pytest.approx(0.5)
        # on the unit circle the representative keeps nonnegative real part
        t, _ = siegel_reduce(complex(-0.3, math.sqrt(1 - 0.09)))
        assert t.re >= 0

    @pytest.mark.parametrize(
        "re,im", [(math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 2.0)]
    )
    def test_non_finite_tau_rejected(self, re, im):
        with pytest.raises(ValueError, match="not finite"):
            SiegelTau(re, im)

    def test_agrees_with_the_exact_reduction_within_its_bound(self):
        # scrambles as in the lattice suite, plus accepted points near the real axis
        rng = np.random.default_rng(0)
        points = [5.3 + 0.2j, 0.5 + 0.5j, 0.3 + 1e-6j, 1e-9j, 0.1 + 1e298j]
        while len(points) < 300:
            a, b, c = (int(v) for v in rng.integers(-10, 11, 3))
            d = next((d for d in range(-60, 61) if a * d - b * c == 1), None)
            if d is not None:
                points.append(UnimodularMap(a, b, c, d).apply(random_reduced_tau(rng).value))
        for z in points:
            t, _ = siegel_reduce(z)
            x, y, drift = oracles.exact_siegel_reduce(z.real, z.imag)
            bound = math.ldexp(drift, -51)
            assert bound <= DEFAULT_TOL, z
            dist = math.sqrt((Fraction(t.re) - x) ** 2 + (Fraction(t.im) - y) ** 2)
            assert dist <= bound * y, z

    @pytest.mark.parametrize("z", [0.3 + 1e-12j, 0.3 + 1e-20j, 0.3 + 5e-324j, 0.1 + 1e-300j])
    def test_rounding_past_the_tolerance_is_an_error(self, z):
        # the float reduction of these lands far from the exact one (Im 7.7e266 for 0.1 + 1e-300 i)
        with pytest.raises(ValueError, match="too close to the real axis"):
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
        coeffs, norm = shortest_vector(g1_torus(2j))
        assert norm * norm == pytest.approx(0.5, abs=1e-12)
        assert tuple(abs(c) for c in coeffs) == (1, 0)

    @given(reduced_taus)
    @settings(max_examples=40, deadline=None)
    def test_rho_consistency_with_svp(self, tau):
        _, norm = shortest_vector(g1_torus(tau.value))
        assert rho_inverse_squared(tau) * norm * norm == pytest.approx(1.0, abs=1e-12)

    def test_skewed_g1_basis_against_bruteforce(self):
        # bases (1 + a tau, b + (1 + a b) tau) of Z + Z tau, so 1 has coefficients (1 + a b, -a)
        rng = np.random.default_rng(3)
        for _ in range(20):
            tau = random_reduced_tau(rng).value
            a, b = (int(v) for v in rng.integers(-4, 5, size=2))
            w1, w2 = 1.0 + a * tau, b + (1 + a * b) * tau
            torus = PolarizedTorus(1, [[w1, w2]], [[1.0 / tau.imag]])
            coeffs, norm = shortest_vector(torus)
            # the Gram entries reach ~5e3, so the oracle's n^T G n cancels to ~1e-12
            _, expected_sq = oracles.svp_bruteforce(torus.gram().tolist(), box=20)
            assert norm * norm == pytest.approx(expected_sq, rel=1e-10)
            assert norm * norm == pytest.approx(1.0 / tau.imag, rel=1e-12)  # |1|^2 / Im tau
            x, y = coeffs
            assert abs(x * w1 + y * w2) == pytest.approx(norm * math.sqrt(tau.imag), rel=1e-12)

    # the second period reaches |1 + a b| |tau| ~ 1.5e4: no search box, a few Gauss steps
    @pytest.mark.parametrize("a, b", [(10, -7), (-100, 99), (300, 41)])
    def test_far_skewed_g1_basis(self, a, b):
        tau = complex(0.3, 1.2)
        w1, w2 = 1.0 + a * tau, b + (1 + a * b) * tau
        coeffs, norm = shortest_vector(PolarizedTorus(1, [[w1, w2]], [[1.0 / tau.imag]]))
        assert coeffs in ((1 + a * b, -a), (-1 - a * b, a))
        assert norm * norm == pytest.approx(1.0 / tau.imag, rel=1e-9)

    def test_shortest_vector_at_im_1e13(self):
        coeffs, norm = shortest_vector(g1_torus(complex(0.3, 1e13)))
        assert coeffs in ((1, 0), (-1, 0))
        assert norm == pytest.approx(1.0 / math.sqrt(1e13), rel=1e-15)

    def test_g2_is_refused(self):
        torus = product_torus(1j)
        with pytest.raises(ValueError, match="g = 1 only"):
            shortest_vector(torus)


class TestAvoidanceMinimum:
    def test_diagonal_identity_and_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            d = avoidance_minimum(torus, [1.0, 1.0])
            rho = 1.0 / math.sqrt(tau.imag)
            assert d == pytest.approx(rho / math.sqrt(2.0), abs=1e-10)
            brute = oracles.avoidance_bruteforce(
                [(1, 0), (tau, 0), (0, 1), (0, tau)],
                [[1 / tau.imag, 0], [0, 1 / tau.imag]],
                (1, 1),
                box=3,
            )
            assert d == pytest.approx(brute, abs=1e-10)

    def test_invariant_under_conjugation(self):
        rng = np.random.default_rng(23)
        tau = random_reduced_tau(rng).value
        torus = product_torus(tau)
        line = [1.0, 1.0]
        d = avoidance_minimum(torus, line)
        d_conj = avoidance_minimum(conjugate_torus(torus), line)
        assert d == pytest.approx(d_conj, abs=1e-12)

    def test_graph_lines_have_constant_scaled_minimum(self):
        # distance off the graph of multiplication by k is rho/sqrt(1+k^2)
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            d = avoidance_minimum(torus, [1.0, float(k)])
            expected = 1.0 / math.sqrt((1 + k * k) * tau.imag)
            assert d == pytest.approx(expected, abs=1e-10)

    def test_minkowski_style_ceiling(self):
        # scaled squared avoidance minimum never exceeds the hexagonal value
        rng = np.random.default_rng(7)
        for _ in range(10):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            for line, x_of_b in (([1.0, 0.0], 1.0), ([1.0, 1.0], 2.0), ([1.0, 2.0], 5.0)):
                d = avoidance_minimum(torus, line)
                assert x_of_b * d * d <= 2.0 / math.sqrt(3.0) + 1e-12

    def test_line_minimum_dominates_transverse_in_line_minimum(self):
        # the avoidance minimum of one line is at most the shortest lattice
        # point on any transverse line
        rng = np.random.default_rng(9)
        tau = random_reduced_tau(rng).value
        torus = product_torus(tau)
        d = avoidance_minimum(torus, [1.0, 1.0])
        anti = min(
            math.sqrt(2.0 * abs(a + b * tau) ** 2 / tau.imag)
            for a in range(-4, 5)
            for b in range(-4, 5)
            if (a, b) != (0, 0)
        )
        assert d <= anti + 1e-12

    def test_product_formula(self):
        t1, t2 = 1.1j, complex(0.2, 1.7)
        periods = [[1.0, t1, 0.0, 0.0], [0.0, 0.0, 1.0, t2]]
        torus = PolarizedTorus(2, periods, np.diag([1 / t1.imag, 1 / t2.imag]))
        rho1 = 1.0 / math.sqrt(t1.imag)
        rho2 = 1.0 / math.sqrt(t2.imag)
        assert avoidance_minimum(torus, [1.0, 0.0]) == pytest.approx(
            rho2, abs=1e-10
        )
        assert avoidance_minimum(torus, [0.0, 1.0]) == pytest.approx(
            rho1, abs=1e-10
        )

    def test_diagonal_avoidance_at_im_1e6(self):
        d = avoidance_minimum(product_torus(1e6j), [1.0, 1.0])
        assert d == pytest.approx(1.0 / math.sqrt(2e6), rel=1e-15)

    def test_invariant_under_a_change_of_lattice_basis(self):
        rng = np.random.default_rng(1)
        for _ in range(16):
            tau = random_reduced_tau(rng).value
            base = product_torus(tau)
            torus = PolarizedTorus(2, base.periods @ random_unimodular(rng), base.riemann_form)
            for k in (1, 2):
                d = avoidance_minimum(torus, [1.0, float(k)])
                assert d == pytest.approx(1.0 / math.sqrt((1 + k * k) * tau.imag), rel=1e-12)

    @given(st.floats(-0.5, 0.5), st.floats(math.log(math.sqrt(3.0) / 2.0), math.log(1e6)))
    @settings(max_examples=100, deadline=None)
    def test_diagonal_identity_up_to_im_1e6(self, re, log_im):
        im = math.exp(log_im)
        assume(re * re + im * im >= 1.0)
        tau = SiegelTau(re, im)
        d = avoidance_minimum(product_torus(tau.value), [1.0, 1.0])
        rho = 1.0 / math.sqrt(rho_inverse_squared(tau))
        assert d == pytest.approx(rho / math.sqrt(2.0), rel=1e-12)

    def test_g1_torus_and_zero_vector_are_refused(self):
        with pytest.raises(ValueError, match="g = 2 only"):
            avoidance_minimum(g1_torus(1j), [1.0])
        with pytest.raises(ValueError, match="nonzero vector"):
            avoidance_minimum(product_torus(1j), [0.0, 0.0])

    @pytest.mark.parametrize("tau", [1j, complex(0.3, 1.2), 2.5j])
    def test_irrational_line_is_refused(self, tau):
        # the line (1, sqrt 2) meets the lattice only in 0, so its projection is dense
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not intersect the lattice in a rank-2 subgroup"):
            avoidance_minimum(product_torus(tau), [1.0, math.sqrt(2.0)])
        assert time.perf_counter() - start < 1.0


class TestPolarizedTorusValidation:
    def test_rejects_non_hermitian_form(self):
        with pytest.raises(ValueError):
            PolarizedTorus(1, [[1.0, 1j]], [[1j]])

    def test_rejects_indefinite_form(self):
        with pytest.raises(ValueError):
            PolarizedTorus(1, [[1.0, 1j]], [[-1.0]])

    def test_rejects_rank_deficient_periods(self):
        with pytest.raises(ValueError):
            PolarizedTorus(1, [[1.0, 2.0]], [[1.0]])
        with pytest.raises(ValueError, match="full real rank"):
            PolarizedTorus(1, [[1.0, 0.0]], [[1.0]])

    def test_full_rank_far_from_the_unit_period(self):
        # the columns differ in size by 1e13; each is scaled to its largest entry before the rank test
        torus = PolarizedTorus(1, [[1, 0.3 + 1e13j]], [[1e-13]])
        assert torus.gram()[1, 1] == pytest.approx(1e13, rel=1e-15)


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
