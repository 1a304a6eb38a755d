"""Release gate: one test per acceptance criterion.

The terminal summary prints one PASS/FAIL line per criterion, taken from the
first docstring line of each test (see conftest). Tolerances and runtimes are
part of the criteria and are asserted here, not in the per-module suites.
"""

import math
import time

import numpy as np
import pytest

import oracles
from periodkit.bounds import (
    autissier_report,
    matrix_lemma_report,
    prop_ell_solver,
    structural_constants,
)
from periodkit.cli import _random_reduced_tau as random_reduced_tau
from periodkit.heights import H_SHIFT, faltings_height_silverman
from periodkit.interpolation import (
    AnalyticTestFunction,
    lemma52_checks,
    schwarz_lemma_check,
    u_sequence,
)
from periodkit.isogeny import chain_checkpoints, explicit_bound
from periodkit.lattice import (
    SiegelTau,
    UnimodularMap,
    avoidance_minimum,
    rho_inverse_squared,
    siegel_reduce,
)
from periodkit.modular import j_invariant, silverman_f_extrema
from periodkit.serre import find_threshold
from periodkit.theta import (
    RiemannTau,
    bost_inequality_check,
    torus_l2_norm,
    torus_log_integral,
)


def test_c01_threshold_prime():
    """C1: threshold search returns exactly 3094027 with f(3094027) > 1 > f(3094028), in under 1 s"""
    start = time.perf_counter()
    result = find_threshold()
    elapsed = time.perf_counter() - start
    assert result.p_star == 3094027
    assert result.f_at_p_star > 1.0 > result.f_at_p_star_plus_1
    assert elapsed < 1.0


def test_c02_diagonal_avoidance_identity():
    """C2: diagonal avoidance distance on E x E equals rho/sqrt(2) within 1e-10 for 50 random reduced tau, matching enumeration"""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        st_tau = random_reduced_tau(rng)
        tau = st_tau.value
        delta = avoidance_minimum(tau, [1.0, 1.0])
        rho = 1.0 / math.sqrt(rho_inverse_squared(st_tau))
        assert delta == pytest.approx(rho / math.sqrt(2.0), abs=1e-10)
        brute = oracles.avoidance_bruteforce(
            [(1, 0), (tau, 0), (0, 1), (0, tau)],
            [[1.0 / tau.imag, 0.0], [0.0, 1.0 / tau.imag]],
            (1, 1),
            box=4,
        )
        assert delta == pytest.approx(brute, abs=1e-10)


def test_c03_theta_l2_normalization():
    """C3: theta L2 mass equals 1 within 1e-6 for three g=1 lattices and 1e-5 for g=2 diag(i,2i), in under 60 s"""
    start = time.perf_counter()
    for tau in (1j, 2j, 0.5 + 1j * math.sqrt(3.0)):
        assert torus_l2_norm(RiemannTau(1, [[tau]])) == pytest.approx(1.0, abs=1e-6)
    g2 = RiemannTau(2, [[1j, 0.0], [0.0, 2j]])
    assert torus_l2_norm(g2, 16) == pytest.approx(1.0, abs=1e-5)
    assert time.perf_counter() - start < 60.0


def test_c04_node_polynomial_and_circle_bounds():
    """C4: node-polynomial checks hold for S=2..12 at grid step 1e-3; both circle bounds hold for monomials d<=10 and exponentials |c|<=2 over S in {2,3,4}, T in {1,2,3}"""
    for rep in lemma52_checks(12):
        assert rep.satisfied, rep
    functions = [AnalyticTestFunction.monomial(d) for d in range(11)]
    functions += [
        AnalyticTestFunction.exponential(c) for c in (-2.0, -1.0, -0.5, 1.0, 2.0)
    ]
    for S in (2, 3, 4):
        for T in (1, 2, 3):
            for f in functions:
                sharp, simple = schwarz_lemma_check(f, S, T)
                assert sharp.satisfied, (f.describe(), S, T, sharp)
                assert simple.satisfied, (f.describe(), S, T, simple)


def test_c05_structural_constants_to_g500():
    """C5: structural constants hold for g=1..500, including c2 <= 11 c1 and 6Z+8.66 <= pi Y - 3 log Y at (6.45,1) and (1920,1000)"""
    reports = structural_constants(500)
    assert reports
    for rep in reports:
        assert rep.satisfied, rep
    assert sum(r.name.startswith("c2_le_11c1") for r in reports) == 500
    _, _, checks = prop_ell_solver(1.0)
    by_name = {r.name: r for r in checks}
    for name in ("ell_proof_condition_Y6.45_Z1", "ell_proof_condition_Y1920_Z1000"):
        assert by_name[name].satisfied and by_name[name].margin > 0.0, by_name[name]
    for Y, Z in ((6.45, 1.0), (1920.0, 1000.0)):
        assert 6.0 * Z + 8.66 <= math.pi * Y - 3.0 * math.log(Y)


def test_c06_sequence_bound_and_constant_margins():
    """C6: u_S <= 8/3 for S=2..10^4 and the sinh/pi and height-slope constants clear their caps with positive margin"""
    reports = u_sequence(10**4)
    for rep in reports:
        assert rep.satisfied, rep
    by_name = {r.name: r for r in reports}
    # S = 2 sits exactly at 8/3; the strict comparison runs from S = 3 up
    assert by_name["u_at_2_is_8_3"].lhs < 1e-12
    for name in ("u_below_8_3_from_3", "sinh_constant_10", "sinh_constant_12"):
        assert by_name[name].margin > 0.0, by_name[name]
    silverman = silverman_f_extrema()
    assert silverman.satisfied and silverman.margin > 0.0, silverman


def test_c07_reduction_round_trip_and_j_values():
    """C7: 1000 random unimodular scrambles reduce back to the original tau within 1e-10; j(i)=1728 and j(corner)=0 within 1e-9"""
    rng = np.random.default_rng(7)
    s_mat = np.array([[0, -1], [1, 0]], dtype=np.int64)
    for _ in range(1000):
        st_tau = random_reduced_tau(rng)
        m = np.eye(2, dtype=np.int64)
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(-4, 5))
            m = m @ np.array([[1, k], [0, 1]], dtype=np.int64) @ s_mat
        scramble = UnimodularMap(int(m[0, 0]), int(m[0, 1]), int(m[1, 0]), int(m[1, 1]))
        recovered, _ = siegel_reduce(scramble.apply(st_tau.value))
        assert abs(recovered.value - st_tau.value) < 1e-10
    assert j_invariant(SiegelTau(0.0, 1.0)).value == pytest.approx(1728.0, abs=1e-9)
    corner = SiegelTau(0.5, math.sqrt(3.0) / 2.0)
    assert abs(j_invariant(corner).value) < 1e-9


def test_c08_height_pipeline_on_fixtures(bundled_records):
    """C8: bundled curves pass the clamped-mean bound, both matrix-lemma variants, both mean-Im caps, and the height floor, with an extended-precision recomputation"""
    assert bundled_records
    floor = -0.5 * math.log(2.0 * math.pi)
    for rec in bundled_records:
        hF = faltings_height_silverman(rec)
        recomputed = oracles.mp_faltings(
            rec.degree,
            [(t.re, t.im) for t in rec.embeddings],
            rec.log_norm_minimal_discriminant,
        )
        assert hF == pytest.approx(recomputed, abs=1e-12), rec.label
        h = hF + H_SHIFT
        assert h >= floor, rec.label
        rhos = [1.0 / math.sqrt(t.im) for t in rec.embeddings]
        assert autissier_report(rhos, h, 1).satisfied, rec.label
        mean_im = sum(t.im for t in rec.embeddings) / rec.degree
        assert matrix_lemma_report(mean_im, h, 1.0, 1, "eleven").satisfied, rec.label
        assert matrix_lemma_report(mean_im, hF, 1.0, 1, "fourteen").satisfied, rec.label
        t_general, t_large, _ = prop_ell_solver(h)
        assert mean_im <= t_general and mean_im <= t_large, rec.label


def test_c09_chain_checkpoints_and_closed_forms():
    """C9: all seven derivation checkpoints pass; closed-form degree caps give 9.70225e12 (general, D=1, height <= 985) and 3583 (real place, D=1)"""
    checkpoints = chain_checkpoints()
    assert len(checkpoints) == 7
    for report in checkpoints:
        assert report.satisfied, report.name
    top = explicit_bound(1, 985.0, "general").bound
    assert top == pytest.approx(9.70225e12, rel=1e-12)
    # any height below the clamp lands on the same cap
    low = explicit_bound(1, 400.0, "general").bound
    assert low == pytest.approx(9.70225e12, rel=1e-12)
    real = explicit_bound(1, 1.0, "real").bound
    assert real == pytest.approx(3583.0, rel=1e-12)


def test_c10_height_floor_vs_log_integral(bundled_records):
    """C10: every bundled curve satisfies -(h + log(2 pi)/2)/2 <= mean log integral, and the closed-form integral matches a Richardson midpoint-grid quadrature at m = 16 and 32 within 1e-12"""
    assert bundled_records
    for rec in bundled_records:
        assert bost_inequality_check(rec).satisfied, rec.label
        for t in rec.embeddings:
            value = torus_log_integral(RiemannTau(1, [[t.value]]))
            for m in (16, 32):
                assert abs(value - oracles.grid_log_integral_g1(t.value, m)) <= 1e-12, rec.label
