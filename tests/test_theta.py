import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit import theta
from periodkit.cli import default_fixture_path, ingest_curves
from periodkit.heights import CurveRecord
from periodkit.lattice import SiegelTau, UnimodularMap
from periodkit.theta import (
    RiemannTau,
    bost_inequality_check,
    default_truncation,
    torus_l2_norm,
    torus_log_integral,
)

TAU_I = RiemannTau(1, [[1j]])
TAU_CORNER = RiemannTau(1, [[0.5 + 1j * math.sqrt(3.0)]])
TAU_G2 = RiemannTau(2, [[1j, 0.0], [0.0, 2j]])


class TestRiemannTau:
    @pytest.mark.parametrize("tau", [0.3 + 0j, -0.2 - 1j, 0.5 - 1e-300j, -5e-324j])
    def test_g1_non_positive_imaginary_part_rejected(self, tau):
        with pytest.raises(ValueError, match="imaginary part must be positive-definite"):
            RiemannTau(1, [[tau]])

    @pytest.mark.parametrize(
        "matrix",
        [[[1j, 2j], [2j, 1j]], [[1j, 0.0], [0.0, -1j]], [[1j, 1j], [1j, 1j]]],
    )
    def test_g2_non_positive_definite_rejected(self, matrix):
        with pytest.raises(ValueError, match="imaginary part must be positive-definite"):
            RiemannTau(2, matrix)

    @pytest.mark.parametrize("y", [5e-324, 1e-300, 0.02, math.sqrt(3.0) / 2.0, 1.0, 7.25, 1e300])
    def test_g1_lambda_min_equals_eigvalsh(self, y):
        tau = RiemannTau(1, [[0.3 + 1j * y]])
        assert tau.lambda_min == float(np.linalg.eigvalsh(np.array([[y]])).min()) == y

    @pytest.mark.parametrize(
        "y",
        [((1.0, 0.0), (0.0, 2.0)), ((1.1, 0.3), (0.3, 0.9)), ((0.03, 0.01), (0.01, 0.04)),
         ((1e-8, 0.0), (0.0, 1e8)), ((1e8, 0.5), (0.5, 1e-8 + 0.25e-8)), ((1e300, 0.0), (0.0, 3e300))],
    )
    def test_g2_lambda_min_matches_50_digits(self, y):
        # det / lambda_max keeps the small eigenvalue where (a + c)/2 - hypot((a - c)/2, b) cancels
        tau = RiemannTau(2, [[1j * v for v in row] for row in y])
        (a, b), (_, c) = y
        with mp.workdps(50):
            a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
            want = float((a + c) / 2 - mp.sqrt(((a - c) / 2) ** 2 + b**2))
        assert tau.lambda_min == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "g, matrix, message",
        [(3, [[1j]], "g must be 1 or 2"), (2, [[1j, 0.0]], "matrix must be 2 x 2"),
         (1, [[1j, 0.0]], "matrix must be 1 x 1"), (1, [[complex("nan")]], "entries must be finite"),
         (2, [[1j, 0.1], [0.2, 1j]], "matrix must be symmetric")],
    )
    def test_malformed_matrix_rejected(self, g, matrix, message):
        with pytest.raises(ValueError, match=message):
            RiemannTau(g, matrix)


class TestTorusIntegrals:
    def test_l2_unit_mass_g1(self):
        for mat in ([[1j]], [[2j]], [[0.5 + 1j * math.sqrt(3.0)]]):
            val = torus_l2_norm(RiemannTau(1, mat), 64)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_l2_unit_mass_g2(self):
        assert torus_l2_norm(TAU_G2, 16) == pytest.approx(1.0, abs=1e-5)

    def test_log_integral_matches_adaptive_oracle(self):
        assert torus_log_integral(TAU_I) == pytest.approx(-0.090385275108931573, abs=1e-8)
        assert torus_log_integral(RiemannTau(1, [[5j]])) == pytest.approx(
            -0.73335066574725849, abs=1e-8
        )

    def test_log_integral_negative_and_larger_for_taller_tau(self):
        small = torus_log_integral(TAU_I)
        tall = torus_log_integral(RiemannTau(1, [[5j]]))
        assert tall < small < 0

    def test_doubling_stability(self):
        for mat in ([[1j]], [[0.5 + 1j * math.sqrt(3.0)]]):
            rt = RiemannTau(1, mat)
            assert abs(torus_l2_norm(rt, 64) - torus_l2_norm(rt, 128)) < 1e-5
        assert abs(torus_l2_norm(TAU_G2, 16) - torus_l2_norm(TAU_G2, 32)) < 1e-4

    def test_log_integral_rejects_g2(self):
        with pytest.raises(ValueError, match="g = 1 only"):
            torus_log_integral(TAU_G2)

    def test_overflow_raises_instead_of_nan(self):
        # 2 pi Im tau overflows inside log Delta from about 2.86e307, and the
        # L2 exponents from about 6e306
        with pytest.raises(OverflowError, match="log integral is not finite"):
            torus_log_integral(RiemannTau(1, [[2.9e307j]]))
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            torus_l2_norm(RiemannTau(1, [[1e307j]]), 64)
        assert np.geterr() == before  # the raising error state ends with the call


TAU_ALIAS_G1 = RiemannTau(1, [[0.3 + 0.08j]])
TAU_ALIAS_G2 = RiemannTau(2, [[0.2 + 0.1j, 0.05], [0.05, 0.3 + 0.12j]])
# thin and with real part 0, so the wrapped terms n and n + 16 move the mean of |F|^2
TAU_WRAP_G1 = RiemannTau(1, [[0.02j]])
TAU_WRAP_G2 = RiemannTau(2, [[0.03j, 0.01j], [0.01j, 0.04j]])


class TestL2Fold:
    @pytest.mark.parametrize(
        "tau, m",
        [(TAU_I, m) for m in (16, 64, 256)]
        + [(TAU_CORNER, m) for m in (16, 64, 256)]
        + [(TAU_G2, 16), (TAU_G2, 32)]
        + [(RiemannTau(2, [[0.4 + 1.1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.2 + 0.9j]]), m) for m in (16, 32)]
        + [(TAU_ALIAS_G1, 16), (TAU_ALIAS_G2, 16), (TAU_WRAP_G1, 16), (TAU_WRAP_G2, 16)]
        # visible aliasing: 0.96414, 0.30376 and 0.99679
        + [(RiemannTau(1, [[100j]]), 16), (RiemannTau(1, [[400j]]), 16), (RiemannTau(1, [[1000j]]), 64)],
    )
    def test_matches_full_grid(self, tau, m):
        assert abs(torus_l2_norm(tau, m) - oracles.grid_l2_mean(tau, m)) <= 1e-13

    def test_aliasing_cases_have_more_terms_than_points(self):
        # 2 box + 1 > m = 16, so the coefficients wrap mod m in the cases above
        assert (default_truncation(TAU_ALIAS_G1), default_truncation(TAU_ALIAS_G2)) == (15, 14)
        for tau in (TAU_WRAP_G1, TAU_WRAP_G2):
            assert 2 * default_truncation(tau) + 1 > 2 * 16
            assert 1.0 - torus_l2_norm(tau, 16) > 1e-6


def _positive_definite(a, c, rho):
    return (a, rho * math.sqrt(a * c)), (rho * math.sqrt(a * c), c)


TAUS = st.one_of(
    st.builds(lambda x, y: RiemannTau(1, [[complex(x, y)]]), st.floats(-0.5, 0.5), st.floats(0.05, 400.0)),
    st.builds(
        lambda x, y: RiemannTau(2, [[complex(x[i][j], y[i][j]) for j in range(2)] for i in range(2)]),
        st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(
            lambda t: ((t[0], t[1]), (t[1], t[2]))
        ),
        st.builds(_positive_definite, st.floats(0.1, 30.0), st.floats(0.1, 30.0), st.floats(-0.8, 0.8)),
    ),
)


class TestL2Branches:
    @given(TAUS, st.sampled_from([16, 18, 32]))
    @settings(max_examples=100, deadline=None)
    def test_dual_and_primal_sums_agree(self, tau, m):
        # the primal form needs an unfolded box; the numpy stream folds by n mod m, so it
        # also covers the folded boxes, to its own rounding of exponents up to pi (box + 1)^2 |tau|
        dual = theta._dual_sum(tau, m)
        assert abs(dual - oracles.stream_l2_norm(tau, m)) <= 1e-12
        box = default_truncation(tau)
        if 2 * box + 1 <= m and (m * (2 * box + 1)) ** tau.g <= 25_000:
            assert abs(dual - theta._primal_sum(tau, m)) <= 1e-14

    @pytest.mark.parametrize("im, m", [(1e3, 64), (1e6, 16), (1e9, 64), (1e12, 16)])
    def test_tall_tau_takes_the_primal_sum(self, im, m, monkeypatch):
        # the dual sum would need about sqrt(Im tau) / m terms; the primal form needs m (2 box + 1)
        tau = RiemannTau(1, [[complex(0.1, im)]])
        calls = []
        monkeypatch.setattr(theta, "_primal_sum", lambda *a: calls.append(a) or 0.5)
        assert torus_l2_norm(tau, m) == (0.5 if im > 1e3 else theta._dual_sum(tau, m))
        assert len(calls) == (im > 1e3)

    def test_too_many_terms_is_an_input_error(self):
        # the primal box folds at lambda_min = 1e-6, and the dual sum needs 705 l_1 by 70,522 k_2 values
        tau = RiemannTau(2, [[1e-6j, 0.0], [0.0, 1e10j]])
        with pytest.raises(ValueError, match=r"needs 4.97e\+07 dual or 1.31e\+10 primal terms, over 2\^24"):
            torus_l2_norm(tau, 16)


class TestL2Memory:
    def test_peak_memory_does_not_grow_with_the_grid(self):
        tracemalloc.start()
        try:
            torus_l2_norm(RiemannTau(2, [[1j, 0.0], [0.0, 2j]]), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


LOG_TAUS = [
    1j,
    5j,
    0.5 + 0.5j * math.sqrt(3.0),
    0.5 + 1j * math.sqrt(3.0),
    0.3 + 0.9j,
    0.3 + 0.08j,
    -0.4 + 7.9j,
    0.1 + 20j,
] + sorted(
    {complex(e.re, e.im) for r in ingest_curves(default_fixture_path()) for e in r.embeddings},
    key=lambda t: (t.real, t.imag),
)


class TestLogProduct:
    # Richardson cancels the 1/m^2 grid error exactly: the limit at every even m
    @pytest.mark.parametrize("m", (16, 32, 64, 128, 256, 512))
    @pytest.mark.parametrize("t", LOG_TAUS, ids=str)
    def test_matches_full_grid(self, t, m):
        got = torus_log_integral(RiemannTau(1, [[t]]))
        assert abs(got - oracles.grid_log_integral_g1(t, m)) <= 1e-12

    def test_thin_tau_grid_mean_matches_mpmath(self):
        # oracles.mp_log_grid_mean_g1(0.02j, m) at 50 digits for m = 16 and 32; the
        # float grid sum is off by 2.4e-3 at m = 16, so the closed form is checked
        # against the Richardson step of the exact grid means
        coarse, fine = -11.887544150530927, -11.925893670228069
        got = torus_log_integral(RiemannTau(1, [[0.02j]]))
        assert abs(got - (4.0 * fine - coarse) / 3.0) <= 1e-10

    # both reduce to a tall tau: 1000i and 100000i
    @pytest.mark.parametrize("t", [0.001j, 1e-5j])
    def test_thin_tau_log_integral_matches_eta(self, t):
        want = float(oracles.mp_log_integral_g1(t))
        assert abs(torus_log_integral(RiemannTau(1, [[t]])) - want) <= 1e-6

    # S: tau -> -1/tau and TS: tau -> 1 - 1/tau move tau along its orbit, so the
    # reduction is checked against the oracle evaluated at the unreduced point
    @pytest.mark.parametrize("image", ("tau", "S", "TS"))
    @pytest.mark.parametrize("t", LOG_TAUS + [0.02j, 0.001j], ids=str)
    def test_log_integral_is_the_eta_closed_form(self, t, image):
        t = {"tau": t, "S": -1 / t, "TS": 1 - 1 / t}[image]
        want = float(oracles.mp_log_integral_g1(t))
        assert abs(torus_log_integral(RiemannTau(1, [[t]])) - want) <= 1e-13 * abs(want)

    @given(
        st.floats(-0.499, 0.499),
        st.floats(1.001, 4.0),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_sl2z(self, re, im, shifts):
        # gamma = S T^k1 S T^k2 ..., applied to a reduced tau
        word = (1, 0, 0, 1)
        for k in shifts:
            word = oracles.mat_mul(oracles.mat_mul(word, (0, -1, 1, 0)), (1, k, 0, 1))
        gamma = UnimodularMap(*word)
        tau = complex(re, im)
        want = torus_log_integral(RiemannTau(1, [[tau]]))
        got = torus_log_integral(RiemannTau(1, [[gamma.apply(tau)]]))
        assert abs(got - want) <= 1e-12 * abs(want)


class TestBostInequality:
    def test_all_fixtures_satisfied(self, bundled_records):
        for rec in bundled_records:
            report = bost_inequality_check(rec)
            assert report.satisfied, str(report)
            assert report.margin > 0, rec.label

    def test_margin_tracks_discriminant_mass(self, bundled_records):
        # with everywhere-good reduction the inequality is an equality, so the
        # slack comes entirely from log|N(disc)|/(24 degree)
        for rec in bundled_records:
            report = bost_inequality_check(rec)
            predicted = rec.log_norm_minimal_discriminant / (24.0 * rec.degree)
            assert report.margin == pytest.approx(predicted, abs=2e-3)

    def test_zero_discriminant_record_sits_at_equality(self):
        rec = CurveRecord(
            label="equality-case",
            degree=1,
            embeddings=(SiegelTau(0.0, 1.0),),
            log_norm_minimal_discriminant=0.0,
            j_rational=(1728, 1),
        )
        report = bost_inequality_check(rec)
        assert abs(report.margin) < 1e-6
