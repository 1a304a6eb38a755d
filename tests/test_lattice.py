import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from periodkit.cli import _product_torus as product_torus
from periodkit.cli import _random_reduced_tau as random_reduced_tau
from periodkit.lattice import (
    CHUNK_ROWS,
    MAX_GRID_POINTS,
    EllipticLattice,
    PolarizedTorus,
    SiegelTau,
    Subspace,
    UnimodularMap,
    _grid_chunks,
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
        t, m = siegel_reduce(EllipticLattice(1.0, 0.5 + 0.5j))
        assert abs(t.value - 1j) < 1e-12
        assert m.apply(0.5 + 0.5j) == pytest.approx(1j, abs=1e-12)

    def test_generic_point_matches_word_enumeration(self):
        t, m = siegel_reduce(EllipticLattice(1.0, 5.3 + 0.2j))
        canon, word = oracles.siegel_bfs(5.3 + 0.2j)
        assert abs(t.value - canon) < 1e-10
        assert (m.a, m.b, m.c, m.d) == word
        assert (m.a, m.b, m.c, m.d) == (2, -11, 1, -5)
        assert t.re == pytest.approx(-4.0 / 13.0, abs=1e-12)
        assert t.im == pytest.approx(20.0 / 13.0, abs=1e-12)

    @given(reduced_taus)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_reduced_input(self, tau):
        t, m = siegel_reduce(EllipticLattice(1.0, tau.value))
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
        t, _ = siegel_reduce(EllipticLattice(1.0, scrambled))
        assert abs(t.value - tau.value) < 1e-10

    def test_boundary_tie_breaks(self):
        t, _ = siegel_reduce(EllipticLattice(1.0, -0.5 + 1.3j))
        assert t.re == pytest.approx(0.5)
        # on the unit circle the representative keeps nonnegative real part
        t, _ = siegel_reduce(EllipticLattice(1.0, complex(-0.3, math.sqrt(1 - 0.09))))
        assert t.re >= 0

    @pytest.mark.parametrize(
        "re,im", [(math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 2.0)]
    )
    def test_non_finite_tau_rejected(self, re, im):
        with pytest.raises(ValueError, match="not finite"):
            SiegelTau(re, im)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            EllipticLattice(1.0, 2.0)
        with pytest.raises(ValueError):
            EllipticLattice(1.0, 1.0 - 0.5j)


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

    def test_g2_svp_against_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t1 = random_reduced_tau(rng).value
            t2 = random_reduced_tau(rng).value
            periods = [[1.0, t1, 0.0, 0.0], [0.0, 0.0, 1.0, t2]]
            torus = PolarizedTorus(2, periods, np.diag([1 / t1.imag, 1 / t2.imag]))
            _, norm = shortest_vector(torus)
            _, expected_sq = oracles.svp_bruteforce(torus.gram().tolist(), box=6)
            assert norm * norm == pytest.approx(expected_sq, rel=1e-10)


class TestAvoidanceMinimum:
    def test_zero_subspace_gives_shortest_vector(self):
        torus = g1_torus(1.3j)
        d = avoidance_minimum(torus, Subspace(1, []))
        _, norm = shortest_vector(torus)
        assert d == norm

    def test_diagonal_identity_and_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            d = avoidance_minimum(torus, Subspace(2, [[1.0, 1.0]]))
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
        sub = Subspace(2, [[1.0, 1.0]])
        d = avoidance_minimum(torus, sub)
        d_conj = avoidance_minimum(conjugate_torus(torus), sub)
        assert d == pytest.approx(d_conj, abs=1e-12)

    def test_graph_lines_have_constant_scaled_minimum(self):
        # distance off the graph of multiplication by k is rho/sqrt(1+k^2)
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            d = avoidance_minimum(torus, Subspace(2, [[1.0, float(k)]]))
            expected = 1.0 / math.sqrt((1 + k * k) * tau.imag)
            assert d == pytest.approx(expected, abs=1e-10)

    def test_minkowski_style_ceiling(self):
        # scaled squared avoidance minimum never exceeds the hexagonal value
        rng = np.random.default_rng(7)
        for _ in range(10):
            tau = random_reduced_tau(rng).value
            torus = product_torus(tau)
            for line, x_of_b in (([1.0, 0.0], 1.0), ([1.0, 1.0], 2.0), ([1.0, 2.0], 5.0)):
                d = avoidance_minimum(torus, Subspace(2, [line]))
                assert x_of_b * d * d <= 2.0 / math.sqrt(3.0) + 1e-12

    def test_line_minimum_dominates_transverse_in_line_minimum(self):
        # the avoidance minimum of one line is at most the shortest lattice
        # point on any transverse line
        rng = np.random.default_rng(9)
        tau = random_reduced_tau(rng).value
        torus = product_torus(tau)
        d = avoidance_minimum(torus, Subspace(2, [[1.0, 1.0]]))
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
        assert avoidance_minimum(torus, Subspace(2, [])) == pytest.approx(
            min(rho1, rho2), abs=1e-12
        )
        assert avoidance_minimum(torus, Subspace(2, [[1.0, 0.0]])) == pytest.approx(
            rho2, abs=1e-10
        )
        assert avoidance_minimum(torus, Subspace(2, [[0.0, 1.0]])) == pytest.approx(
            rho1, abs=1e-10
        )

    def test_oversized_box_is_refused_before_enumeration(self):
        # 1414215 x 1 x 1414215 x 1 coefficients
        with pytest.raises(ValueError, match="holds 2000004066225 points"):
            next(_grid_chunks([707107, 0, 707107, 0]))
        d = avoidance_minimum(product_torus(1e6j), Subspace(2, [[1.0, 1.0]]))
        assert d == pytest.approx(1.0 / math.sqrt(2e6), rel=1e-15)

    def test_box_at_the_limit_is_enumerated(self):
        side = 2 * 7905 + 1  # side**2 = 249,948,961 points
        assert side * side <= MAX_GRID_POINTS < (side + 2) ** 2
        first = next(_grid_chunks([7905, 7905]))
        rows = -(-CHUNK_ROWS // side) * side  # whole rows of the first axis
        assert first.shape == (rows, 2)
        assert first[0].tolist() == [-7905, -7905] and first[-1, 1] == 7905

    def test_invariant_under_a_change_of_lattice_basis(self):
        # skewed bases: the search boxes of draws 5 (k = 2) and 14 (k = 1) exceed MAX_GRID_POINTS
        rng = np.random.default_rng(1)
        for _ in range(16):
            tau = random_reduced_tau(rng).value
            base = product_torus(tau)
            torus = PolarizedTorus(2, base.periods @ random_unimodular(rng), base.riemann_form)
            for k in (1, 2):
                d = avoidance_minimum(torus, Subspace(2, [[1.0, float(k)]]))
                assert d == pytest.approx(1.0 / math.sqrt((1 + k * k) * tau.imag), rel=1e-12)

    @given(st.floats(-0.5, 0.5), st.floats(math.log(math.sqrt(3.0) / 2.0), math.log(1e6)))
    @settings(max_examples=100, deadline=None)
    def test_diagonal_identity_up_to_im_1e6(self, re, log_im):
        im = math.exp(log_im)
        assume(re * re + im * im >= 1.0)
        tau = SiegelTau(re, im)
        d = avoidance_minimum(product_torus(tau.value), Subspace(2, [[1.0, 1.0]]))
        rho = 1.0 / math.sqrt(rho_inverse_squared(tau))
        assert d == pytest.approx(rho / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("tau", [1j, complex(0.3, 1.2), 2.5j])
    def test_irrational_line_is_refused(self, tau):
        # the line (1, sqrt 2) meets the lattice only in 0, so its projection is dense
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not intersect the lattice in a rank-2 subgroup"):
            avoidance_minimum(product_torus(tau), Subspace(2, [[1.0, math.sqrt(2.0)]]))
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
