import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit import theta
from periodkit.cli import default_fixture_path, ingest_curves
from periodkit.heights import CurveRecord
from periodkit.lattice import SiegelTau
from periodkit.theta import (
    AppellHumbert,
    RiemannTau,
    TorusPoint,
    bost_inequality_check,
    default_truncation,
    eval_F,
    eval_F_raw,
    theta_at_z,
    theta_from_F,
    torus_l2_norm,
    torus_log_integral,
)

TAU_I = RiemannTau(1, [[1j]])
TAU_CORNER = RiemannTau(1, [[0.5 + 1j * math.sqrt(3.0)]])
TAU_G2 = RiemannTau(2, [[1j, 0.0], [0.0, 2j]])

unit_coords = st.floats(0.0, 0.999)


class TestSeriesEvaluation:
    def test_central_value_at_i(self):
        got = eval_F(TAU_I, TorusPoint([0.0], [0.0]))
        want = oracles.mp_F1(1j, 0.0, 0.0)
        assert got.value.real == pytest.approx(1.2919960074815039, rel=1e-14)
        assert abs(got.value - complex(want)) < 1e-14
        assert abs(got.value.imag) < 1e-15

    def test_generic_point_at_i(self):
        got = eval_F(TAU_I, TorusPoint([0.3], [0.7]))
        assert got.value.real == pytest.approx(0.81556328197122999, rel=1e-13)
        assert got.value.imag == pytest.approx(0.23694303677706712, rel=1e-13)

    def test_generic_point_off_axis_tau(self):
        got = eval_F(RiemannTau(1, [[0.5 + 1j * math.sqrt(3.0)]]), TorusPoint([0.2], [0.4]))
        assert got.value.real == pytest.approx(1.0979158660815058, rel=1e-13)
        assert got.value.imag == pytest.approx(0.026526979244167541, rel=1e-12)

    def test_g2_diagonal_factors(self):
        got = eval_F(TAU_G2, TorusPoint([0.3, 0.1], [0.7, 0.25]))
        want = oracles.mp_F2_diag(1j, 2j, (0.3, 0.1), (0.7, 0.25))
        assert got.value.real == pytest.approx(1.0850388571605529, rel=1e-13)
        assert got.value.imag == pytest.approx(0.30815038740406078, rel=1e-13)
        assert abs(got.value - complex(want)) < 1e-13

    @given(unit_coords, unit_coords)
    @settings(max_examples=30, deadline=None)
    def test_reported_tail_dominates_truncation_change(self, p, q):
        base = default_truncation(TAU_I)
        coarse = eval_F_raw(TAU_I, [p], [q], truncation=base)
        fine = eval_F_raw(TAU_I, [p], [q], truncation=2 * base)
        assert abs(coarse.value - fine.value) <= coarse.tail + 1e-16
        assert coarse.tail < 1e-12


class TestThetaFunction:
    def test_theta_equals_F_at_origin(self):
        pt = TorusPoint([0.0], [0.0])
        assert theta_from_F(TAU_I, pt) == pytest.approx(
            complex(eval_F(TAU_I, pt).value), abs=1e-15
        )

    @given(unit_coords, unit_coords)
    @settings(max_examples=40, deadline=None)
    def test_modulus_identity(self, p, q):
        # |theta(z)| = |F(p, q)| exp((pi/2) H(z, z)) for z = tau p + q
        pt = TorusPoint([p], [q])
        tau = complex(TAU_CORNER.matrix[0, 0])
        z = tau * p + q
        ah = AppellHumbert(TAU_CORNER)
        lhs = abs(theta_from_F(TAU_CORNER, pt))
        rhs = abs(eval_F(TAU_CORNER, pt).value) * math.exp(
            (math.pi / 2.0) * ah.pair([z], [z]).real
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(unit_coords, unit_coords, st.integers(-2, 2), st.integers(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_functional_equation(self, p, q, m, n):
        tau = complex(TAU_CORNER.matrix[0, 0])
        z = tau * p + q
        omega = tau * m + n
        ah = AppellHumbert(TAU_CORNER)
        lhs = theta_at_z(TAU_CORNER, [z + omega])
        rhs = ah.automorphy_factor(TAU_CORNER, [m], [n], [z]) * theta_at_z(
            TAU_CORNER, [z]
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_cauchy_riemann_residual(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        tau = complex(TAU_CORNER.matrix[0, 0])
        for _ in range(8):
            z = tau * rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9)
            fx = (theta_at_z(TAU_CORNER, [z + h]) - theta_at_z(TAU_CORNER, [z - h])) / (
                2 * h
            )
            fy = (
                theta_at_z(TAU_CORNER, [z + 1j * h]) - theta_at_z(TAU_CORNER, [z - 1j * h])
            ) / (2 * h)
            assert abs(fx + 1j * fy) < 1e-6 * max(1.0, abs(fx))


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
        assert (
            abs(torus_log_integral(TAU_G2, 16) - torus_log_integral(TAU_G2, 32)) < 1e-4
        )


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
        assert abs(theta._product_log_mean(tau, m) - _grid_log_mean_g1(tau, m)) <= 1e-12

    def test_thin_tau_grid_mean_matches_mpmath(self):
        # oracles.mp_log_grid_mean_g1(0.02j, 16) at 50 digits; the float grid sum is off by 2.4e-3
        got = theta._product_log_mean(RiemannTau(1, [[0.02j]]), 16)
        assert abs(got - (-11.887544150530927)) <= 1e-10

    # at 1e-5j the product family has 636,621 terms, summed in blocks
    @pytest.mark.parametrize("t", [0.001j, 1e-5j])
    def test_thin_tau_log_integral_matches_eta(self, t):
        want = float(oracles.mp_log_integral_g1(t))
        assert abs(torus_log_integral(RiemannTau(1, [[t]]), 64) - want) <= 1e-6

    def test_g1_never_builds_the_grid(self, monkeypatch):
        def refuse(tau, m):
            raise AssertionError("grid built for g=1")

        monkeypatch.setattr(theta, "_grid_log_mean", refuse)
        assert torus_log_integral(TAU_I, 64) == pytest.approx(-0.090385275108931573, abs=1e-8)


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
