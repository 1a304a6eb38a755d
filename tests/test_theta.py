import math

import numpy as np
import pytest

import oracles
from periodkit import theta
from periodkit.cli import default_fixture_path, ingest_curves
from periodkit.heights import CurveRecord
from periodkit.lattice import SiegelTau
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


class TestTorusIntegrals:
    def test_l2_unit_mass_g1(self):
        for mat in ([[1j]], [[2j]], [[0.5 + 1j * math.sqrt(3.0)]]):
            val = torus_l2_norm(RiemannTau(1, mat), 64)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_l2_unit_mass_g2(self):
        assert torus_l2_norm(TAU_G2, 16) == pytest.approx(1.0, abs=1e-5)

    def test_log_integral_matches_adaptive_oracle(self):
        assert torus_log_integral(TAU_I, 64) == pytest.approx(
            -0.090385275108931573, abs=1e-8
        )
        assert torus_log_integral(RiemannTau(1, [[5j]]), 64) == pytest.approx(
            -0.73335066574725849, abs=1e-8
        )

    def test_log_integral_negative_and_larger_for_taller_tau(self):
        small = torus_log_integral(TAU_I, 64)
        tall = torus_log_integral(RiemannTau(1, [[5j]]), 64)
        assert tall < small < 0

    def test_doubling_stability(self):
        for mat, cap in (([[1j]], 1e-5), ([[0.5 + 1j * math.sqrt(3.0)]], 1e-5)):
            rt = RiemannTau(1, mat)
            assert abs(torus_l2_norm(rt, 64) - torus_l2_norm(rt, 128)) < cap
            assert abs(torus_log_integral(rt, 64) - torus_log_integral(rt, 128)) < cap
        assert abs(torus_l2_norm(TAU_G2, 16) - torus_l2_norm(TAU_G2, 32)) < 1e-4

    def test_log_integral_rejects_g2(self):
        with pytest.raises(ValueError, match="g = 1 only"):
            torus_log_integral(TAU_G2, 16)


def _grid_l2_mean(tau: RiemannTau, m: int) -> float:
    """Reference sweep: mean of |F|^2 over the full m^g x m^g midpoint grid."""
    box = default_truncation(tau)
    axis = (np.arange(m) + 0.5) / m
    pts = np.stack(np.meshgrid(*[axis] * tau.g, indexing="ij"), axis=-1).reshape(-1, tau.g)
    ns = np.stack(
        np.meshgrid(*[np.arange(-box, box + 1)] * tau.g, indexing="ij"), axis=-1
    ).reshape(-1, tau.g)
    w = ns[:, None, :] + pts[None, :, :]
    A = np.exp(1j * math.pi * np.einsum("kij,jl,kil->ki", w, tau.matrix, w))
    B = np.exp(2j * math.pi * (ns @ pts.T))
    F = float(np.linalg.det(2.0 * tau.y)) ** 0.25 * (A.T @ B)
    return float(np.mean(np.abs(F) ** 2))


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
        + [(TAU_ALIAS_G1, 16), (TAU_ALIAS_G2, 16), (TAU_WRAP_G1, 16), (TAU_WRAP_G2, 16)],
    )
    def test_matches_full_grid(self, tau, m):
        assert abs(torus_l2_norm(tau, m) - _grid_l2_mean(tau, m)) <= 1e-13

    def test_aliasing_cases_have_more_terms_than_points(self):
        # 2 box + 1 > m = 16, so the coefficients wrap mod m in the cases above
        assert (default_truncation(TAU_ALIAS_G1), default_truncation(TAU_ALIAS_G2)) == (15, 14)
        for tau in (TAU_WRAP_G1, TAU_WRAP_G2):
            assert 2 * default_truncation(tau) + 1 > 2 * 16
            assert 1.0 - torus_l2_norm(tau, 16) > 1e-6


def _grid_log_mean_g1(tau: RiemannTau, m: int) -> float:
    """Reference sweep: mean of log|F| over the full m x m midpoint grid, g=1."""
    box = default_truncation(tau)
    t = complex(tau.matrix[0, 0])
    axis = (np.arange(m) + 0.5) / m
    ns = np.arange(-box, box + 1)
    A = np.exp(1j * math.pi * t * (ns[:, None] + axis[None, :]) ** 2)
    B = np.exp(2j * math.pi * np.outer(ns, axis))
    F = (2.0 * t.imag) ** 0.25 * (A.T @ B)
    return float(np.mean(np.log(np.abs(F))))


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
    @pytest.mark.parametrize("m", (16, 32, 64, 128, 256, 512))
    @pytest.mark.parametrize("t", LOG_TAUS, ids=str)
    def test_matches_full_grid(self, t, m):
        tau = RiemannTau(1, [[t]])
        (got,) = theta._product_log_means(tau, m)
        assert abs(got - _grid_log_mean_g1(tau, m)) <= 1e-12

    def test_thin_tau_grid_mean_matches_mpmath(self):
        # oracles.mp_log_grid_mean_g1(0.02j, 16) at 50 digits; the float grid sum is off by 2.4e-3
        (got,) = theta._product_log_means(RiemannTau(1, [[0.02j]]), 16)
        assert abs(got - (-11.887544150530927)) <= 1e-10

    # at 1e-5j the product family has 636,621 terms, summed in blocks
    @pytest.mark.parametrize("t", [0.001j, 1e-5j])
    def test_thin_tau_log_integral_matches_eta(self, t):
        want = float(oracles.mp_log_integral_g1(t))
        assert abs(torus_log_integral(RiemannTau(1, [[t]]), 64) - want) <= 1e-6

    # at 0.001i the families hold 6,368 + 13,056 + 13,568 terms: 20,000 puts the
    # first two in one block, 4,099 and 1,000 cut inside each family
    @pytest.mark.parametrize("block", [20000, 4099, 1000])
    def test_block_boundaries_do_not_move_the_result(self, block, monkeypatch):
        tau = RiemannTau(1, [[0.001j]])
        whole = torus_log_integral(tau, 64)
        monkeypatch.setattr(theta, "_BLOCK", block)
        got = torus_log_integral(tau, 64)
        assert abs(got - float(oracles.mp_log_integral_g1(0.001j))) <= 1e-6
        assert abs(got - whole) <= 1e-12

    def test_families_share_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = theta._log_abs_1p_exp

        def counted(z):
            calls.append(z.size)
            return kernel(z)

        monkeypatch.setattr(theta, "_log_abs_1p_exp", counted)
        for t in LOG_TAUS:
            calls.clear()
            torus_log_integral(RiemannTau(1, [[t]]), 64)
            assert len(calls) == 1 and calls[0] <= theta._BLOCK, t

    def test_kernel_skips_only_terms_that_round_to_zero(self):
        # the full formula at every entry, for a spread of Re z across -50
        z = np.linspace(-80.0, 80.0, 4001) + 1j * np.linspace(-300.0, 300.0, 4001)
        a = -np.abs(z.real)
        mod_sq = np.expm1(a) ** 2 + 4.0 * np.exp(a) * np.cos(0.5 * z.imag) ** 2
        full = 0.5 * np.log(mod_sq) + np.maximum(z.real, 0.0)
        assert np.array_equal(theta._log_abs_1p_exp(z), full)


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
