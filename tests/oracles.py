"""Independent reference computations for freezing expected test values.

Nothing in this module imports the package under test. Oracles use mpmath
extended precision, exact integer series arithmetic, brute-force enumeration,
or scipy adaptive quadrature, so every comparison in the test suite pits two
genuinely different code paths against each other.

Run as a script to regenerate the frozen constants quoted in the tests:

    python tests/oracles.py
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# q-series oracles (mpmath, term-by-term loops, no vectorization)
# ---------------------------------------------------------------------------

def mp_delta(tau, n_terms=2000):
    """q * prod_{n<=N} (1-q^n)^24 at mpmath working precision."""
    q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
    prod = mp.mpc(1)
    for n in range(1, n_terms + 1):
        prod *= (1 - q ** n) ** 24
    return q * prod


def mp_log_delta(tau, dps=40):
    """log Delta = 2 pi i tau + 24 sum_n log(1 - q^n), summed at ``dps`` digits.

    The sum runs until |q^n| < 10^-(dps + 5), so it needs no fixed order and
    no value of size |Delta| ~ e^{-2 pi Im tau}: it works up to Im tau = 2000
    and beyond, and below Im tau = 0.1 it only takes more terms. The branch
    is the sum of principal logarithms, as in the float evaluator.
    """
    with mp.workdps(dps):
        t = mp.mpmathify(tau)
        q = mp.exp(2j * mp.pi * t)
        eps = mp.mpf(10) ** (-dps - 5)
        acc = mp.mpc(0)
        qn = mp.mpc(1)
        while True:
            qn *= q
            if abs(qn) < eps:
                return 2j * mp.pi * t + 24 * acc
            acc += mp.log(1 - qn)


def _sigma3_table(n_max):
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        cube = d ** 3
        for m in range(d, n_max + 1, d):
            sig[m] += cube
    return sig


def mp_e4(tau, n_terms=2000):
    sig = _sigma3_table(n_terms)
    q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
    total = mp.mpc(1)
    qn = mp.mpc(1)
    for n in range(1, n_terms + 1):
        qn *= q
        total += 240 * sig[n] * qn
    return total


def mp_j(tau, n_terms=2000):
    return mp_e4(tau, n_terms) ** 3 / mp_delta(tau, n_terms)


def j_series_coefficients(n_coeffs=12):
    """First coefficients of the q-expansion of j, by exact integer series.

    Returns [c_{-1}, c_0, c_1, ...] so that j = sum c_k q^k starting at k=-1.
    Computed as E4^3 divided by Delta/q with integer arithmetic throughout.
    """
    n = n_coeffs + 2
    sig = _sigma3_table(n)
    e4 = [1] + [240 * sig[k] for k in range(1, n)]
    # Delta/q = prod (1-q^m)^24, exact integer coefficients.
    dq = [1] + [0] * (n - 1)
    for m in range(1, n):
        for _ in range(24):
            # multiply dq by (1 - q^m)
            for k in range(n - 1, m - 1, -1):
                dq[k] -= dq[k - m]
    # e4 cubed
    e43 = [0] * n
    tmp = [0] * n
    for i, a in enumerate(e4):
        for k in range(n - i):
            tmp[i + k] += a * e4[k]
    for i, a in enumerate(tmp):
        for k in range(n - i):
            e43[i + k] += a * e4[k]
    # series division e43 / dq
    out = [0] * n
    rem = list(e43)
    for k in range(n):
        c = rem[k]
        out[k] = c
        for i in range(n - k):
            rem[k + i] -= c * dq[i]
    return out[:n_coeffs]


def tau_from_j_on_line(j_target, re_part, dps=50, y_lo=0.85, y_hi=4.0):
    """Solve j(re_part + i*y) = j_target for y by bisection at high precision.

    Valid on the two real-j lines of the fundamental domain (re_part = 0,
    where j >= 1728 decreases toward y=1, or re_part = 1/2, where j <= 0).
    """
    with mp.workdps(dps):
        target = mp.mpf(j_target)

        def g(y):
            return mp.re(mp_j(mp.mpc(re_part, y))) - target

        lo, hi = mp.mpf(y_lo), mp.mpf(y_hi)
        glo, ghi = g(lo), g(hi)
        if mp.sign(glo) == mp.sign(ghi):
            raise ValueError("j target not bracketed on this line")
        for _ in range(dps * 7):
            mid = (lo + hi) / 2
            gm = g(mid)
            if mp.sign(gm) == mp.sign(glo):
                lo, glo = mid, gm
            else:
                hi, ghi = mid, gm
        return (lo + hi) / 2


def mp_faltings(degree, taus, log_norm_disc, dps=50, n_terms=2000):
    """Stable Faltings height via the discriminant/period formula.

    h_F = (1/(12D)) log|N disc| - (1/(12D)) sum_sigma log(|Delta(tau)| y^6)
    with Delta in the (2pi)^12 normalization.
    """
    with mp.workdps(dps):
        acc = mp.mpf(log_norm_disc)
        for re, im in taus:
            d = (2 * mp.pi) ** 12 * mp_delta(mp.mpc(re, im), n_terms)
            acc -= mp.log(abs(d) * mp.mpf(im) ** 6)
        return acc / (12 * degree)


# ---------------------------------------------------------------------------
# Theta oracle: direct double-loop summation, high precision
# ---------------------------------------------------------------------------

def mp_F1(tau, p, q, box=30, dps=30):
    """g=1 theta-like sum det(2y)^(1/4) sum_n exp(i pi (n+p)^2 tau + 2 i pi n q)."""
    with mp.workdps(dps):
        t = mp.mpmathify(tau)
        y = mp.im(t)
        total = mp.mpc(0)
        for n in range(-box, box + 1):
            total += mp.e ** (1j * mp.pi * (n + p) ** 2 * t + 2j * mp.pi * n * q)
        return (2 * y) ** mp.mpf("0.25") * total


def mp_log_grid_mean_g1(tau, m, box=45, dps=50):
    """Mean of log|F| over the m x m midpoint grid ((i + 1/2)/m, (j + 1/2)/m), g=1."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for i in range(m):
            for j in range(m):
                p = mp.mpf(2 * i + 1) / (2 * m)
                q = mp.mpf(2 * j + 1) / (2 * m)
                total += mp.log(abs(mp_F1(tau, p, q, box, dps)))
        return total / m ** 2


def grid_log_integral_g1(tau, m):
    """Midpoint-grid quadrature of the torus integral of log|F|, g=1, with one Richardson step.

    F is summed directly over |n| <= box on the m x m and 2m x 2m grids of
    points ((i + 1/2)/k, (j + 1/2)/k), box = ceil(sqrt(40 / (pi Im tau))) + 2,
    so the terms left out are below e^-40. The log singularities on the
    theta divisor make the grid error O(1/m^2), which (4 fine - coarse) / 3
    cancels.
    """
    t = complex(tau)
    box = math.ceil(math.sqrt(40.0 / (math.pi * t.imag))) + 2
    ns = np.arange(-box, box + 1)

    def grid_mean(k):
        axis = (np.arange(k) + 0.5) / k
        A = np.exp(1j * math.pi * t * (ns[:, None] + axis[None, :]) ** 2)
        B = np.exp(2j * math.pi * np.outer(ns, axis))
        F = (2.0 * t.imag) ** 0.25 * (A.T @ B)
        return float(np.mean(np.log(np.abs(F))))

    return (4.0 * grid_mean(2 * m) - grid_mean(m)) / 3.0


def mp_log_integral_g1(tau, dps=30):
    """Exact torus integral of log|F|, g=1: (1/4) log 2y + log|eta(tau)|.

    eta is evaluated at -1/tau, where its product converges fast for thin
    tau, and brought back by |eta(tau)| = |eta(-1/tau)| / |tau|^(1/2).
    """
    with mp.workdps(dps):
        t = mp.mpmathify(tau)
        s = -1 / t
        q = mp.e ** (2j * mp.pi * s)
        log_eta_s = mp.re(2j * mp.pi * s / 24)
        n = 1
        while abs(q) ** n > mp.mpf(10) ** (-dps):
            log_eta_s += mp.log(abs(1 - q ** n))
            n += 1
        return mp.log(2 * mp.im(t)) / 4 + log_eta_s - mp.log(abs(t)) / 2


def scipy_l2_g1(tau, tol=1e-9):
    """Adaptive-quadrature value of the (p,q)-torus integral of |F|^2, g=1."""
    from scipy.integrate import dblquad

    t = complex(tau)
    y = t.imag
    pref = math.sqrt(2 * y)  # |det(2y)^(1/4)|^2

    def integrand(q, p):
        total = 0j
        for n in range(-25, 26):
            total += cmath.exp(1j * math.pi * (n + p) ** 2 * t + 2j * math.pi * n * q)
        return pref * abs(total) ** 2

    val, _ = dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=tol, epsrel=tol)
    return val


def scipy_log_integral_g1(tau, tol=1e-8):
    """Adaptive-quadrature value of the torus integral of log|F|, g=1."""
    from scipy.integrate import dblquad

    t = complex(tau)
    y = t.imag
    lpref = 0.25 * math.log(2 * y)

    def integrand(q, p):
        total = 0j
        for n in range(-25, 26):
            total += cmath.exp(1j * math.pi * (n + p) ** 2 * t + 2j * math.pi * n * q)
        return lpref + math.log(abs(total))

    val, _ = dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=tol, epsrel=tol)
    return val


# ---------------------------------------------------------------------------
# Lattice oracles: brute-force enumeration, BFS word search
# ---------------------------------------------------------------------------

def svp_bruteforce(gram, box):
    """Shortest nonzero vector of an integer-combination lattice, brute force.

    gram is a real symmetric positive-definite matrix (list of lists or
    ndarray); returns (coeffs, norm_squared) minimizing n^T G n over the box.
    """
    dim = len(gram)
    best = None
    best_n = None

    def rec(prefix):
        nonlocal best, best_n
        if len(prefix) == dim:
            if all(c == 0 for c in prefix):
                return
            val = 0.0
            for i in range(dim):
                for k in range(dim):
                    val += prefix[i] * gram[i][k] * prefix[k]
            if best is None or val < best:
                best, best_n = val, tuple(prefix)
            return
        for c in range(-box, box + 1):
            rec(prefix + [c])

    rec([])
    return best_n, best


def distance_to_complex_line(vec, line, hermitian):
    """H-distance of complex g-vector vec to the complex span of line.

    Computed through the projection residual rather than the Pythagorean
    difference of squared norms: the latter cancels catastrophically for
    vectors on (or near) the line and would float the distance of actual
    line members up to ~sqrt(eps).
    """
    g = len(vec)

    def h(a, b):
        return sum(
            a[i].conjugate() * hermitian[i][k] * b[k]
            for i in range(g)
            for k in range(g)
        )

    t = h(line, vec) / h(line, line)
    resid = [vec[i] - t * line[i] for i in range(g)]
    return math.sqrt(max(h(resid, resid).real, 0.0))


def avoidance_bruteforce(periods, hermitian, line, box, membership_eps=1e-8):
    """delta(A, L, B) by plain enumeration over a coefficient box.

    periods: list of 2g complex g-vectors (lattice basis); line: complex
    g-vector spanning t_B (or None for B = 0). No certified radius; callers
    choose a generous box.
    """
    g = len(periods[0])
    best = None
    ranges = [range(-box, box + 1)] * len(periods)
    import itertools

    for coeffs in itertools.product(*ranges):
        if all(c == 0 for c in coeffs):
            continue
        vec = [sum(c * w[i] for c, w in zip(coeffs, periods)) for i in range(g)]
        if line is None:
            d = math.sqrt(
                sum(
                    (vec[i].conjugate() * hermitian[i][k] * vec[k]).real
                    for i in range(g)
                    for k in range(g)
                )
            )
        else:
            d = distance_to_complex_line(vec, line, hermitian)
            if d < membership_eps:
                continue
        if best is None or d < best:
            best = d
    return best


_FD_EPS = 1e-12


def _in_closed_domain(z):
    return abs(z.real) <= 0.5 + _FD_EPS and abs(z) >= 1 - _FD_EPS


def _tie_break(z):
    if abs(z.real + 0.5) <= 1e-9:
        z = z + 1.0
    if abs(abs(z) - 1) <= 1e-9 and z.real < 0:
        z = -1 / z
    return z


def siegel_bfs(tau0, entry_bound=200, max_nodes=500_000):
    """All fundamental-domain images of tau0 under words in S, T, T^{-1}.

    Breadth-first search over SL2(Z) matrices (deduplicated up to sign) with
    an entry-size pruning bound. Returns (canonical_tau, matrix) where the
    canonical representative applies the boundary tie-break (Re=+1/2 over
    -1/2; Re >= 0 on the unit circle).
    """
    from collections import deque

    def canon(m):
        a, b, c, d = m
        if c < 0 or (c == 0 and a < 0):
            return (-a, -b, -c, -d)
        return m

    def mul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    gens = [(0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1)]
    start = (1, 0, 0, 1)
    seen = {canon(start)}
    queue = deque([start])
    hits = []
    while queue and len(seen) < max_nodes:
        m = queue.popleft()
        a, b, c, d = m
        z = (a * tau0 + b) / (c * tau0 + d)
        if _in_closed_domain(z):
            hits.append((z, m))
        for gmat in gens:
            nm = mul(gmat, m)
            if max(abs(x) for x in nm) > entry_bound:
                continue
            cm = canon(nm)
            if cm not in seen:
                seen.add(cm)
                queue.append(nm)
    if not hits:
        raise RuntimeError("no fundamental-domain image found; enlarge bounds")
    images = [_tie_break(z) for z, _ in hits]
    ref = images[0]
    for z in images[1:]:
        if abs(z - ref) > 1e-9:
            raise RuntimeError("fundamental-domain images disagree: %r %r" % (ref, z))
    # report the matrix whose raw image needed no tie-break fix if available
    for z, m in hits:
        if abs(z - ref) <= 1e-12:
            return ref, m
    return ref, hits[0][1]


# ---------------------------------------------------------------------------
# Scalar scan oracles for the implicit solvers
# ---------------------------------------------------------------------------

def scan_prop_ell_delta(h, step=1e-6, hard_cap=1e7):
    """Largest delta >= 3/pi with pi*delta <= 3 log delta + 6h + 8.66, by scan."""
    rhs_const = 6 * h + 8.66
    delta = 3 / math.pi
    if math.pi * delta > 3 * math.log(delta) + rhs_const:
        raise ValueError("empty admissible interval")
    # coarse doubling to bracket, interval halving to a small window, then a
    # plain linear scan at the requested step inside that window
    hi = delta
    while math.pi * hi <= 3 * math.log(hi) + rhs_const:
        hi *= 2
        if hi > hard_cap:
            raise ValueError("cap exceeded")
    lo = hi / 2
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if math.pi * mid <= 3 * math.log(mid) + rhs_const:
            lo = mid
        else:
            hi = mid
    d = lo
    while d + step <= hi:
        if math.pi * (d + step) > 3 * math.log(d + step) + rhs_const:
            return d
        d += step
    return d


def scan_implicit_delta(D, H, factor=1 + 1e-6):
    """Largest Delta with sqrt(Delta) <= 1778 D sqrt(2/3) (H + log(H)/2 + 2 log Delta + 2.4).

    Multiplicative scan in s = sqrt(Delta).
    """
    C = 1778 * D * math.sqrt(2.0 / 3.0)
    base = H + 0.5 * math.log(H) + 2.4

    def ok(s):
        return s <= C * (base + 4 * math.log(s))

    s = max(C * base, 2.0)
    if not ok(s):
        while not ok(s):
            s /= factor
    else:
        while ok(s * factor):
            s *= factor
    return s * s


def j_log_upper(p):
    """2 pi sqrt(p) + 6 log p + 21 (log p)^2 / sqrt(p), the log|j| growth bound behind H(p)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    sp = math.sqrt(p)
    lp = math.log(p)
    return 2.0 * math.pi * sp + 6.0 * lp + 21.0 * lp * lp / sp


def mp_serre_f(p, dps=50):
    """f(p) for the split-Cartan threshold, recomputed at high precision."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        H = mp.mpf(1000)
        branch = mp.pi / 6 * mp.sqrt(p) + mp.log(p) + mp.mpf(7) / 4 * mp.log(p) ** 2 / mp.sqrt(p) + mp.mpf("2.95")
        if branch > H:
            H = branch
        val = 2 * mp.sqrt(mp.mpf(2) / 3) * 1778 * (H + 4 * mp.log(p) + mp.mpf("2.4") + mp.mpf("0.5") * mp.log(H))
        return val / p


def mp_u(S, dps=50):
    with mp.workdps(dps):
        return mp.mpf(4) ** S * mp.factorial(S - 1) ** 2 / mp.factorial(2 * S - 1)


# ---------------------------------------------------------------------------
# Sampled circle sweeps (the interpolation checks evaluate proofs instead)
# ---------------------------------------------------------------------------

def sup_on_circle(f, radius, samples=4096, lipschitz=None):
    """Sampled max|f| on the circle of given radius about 0, for any callable f.

    With ``lipschitz`` (a bound for |f'| near the circle) the sampled maximum
    is inflated by half the arc step times the bound, giving a certified
    upper bound; without it the raw sampled maximum is returned, a lower
    estimate.
    """
    angles = 2.0 * math.pi * np.arange(samples) / samples
    pts = radius * np.exp(1j * angles)
    m = max(abs(f(complex(w))) for w in pts)
    if lipschitz is None:
        return m
    return m + lipschitz * (math.pi * radius / samples)


def node_poly_on_circle(S, center, radius, samples):
    """Sample points of a circle and |prod (z - j)| over j = 1-S..S-1 at each."""
    angles = 2.0 * math.pi * np.arange(samples) / samples
    zs = center + radius * np.exp(1j * angles)
    return zs, np.abs(np.prod(zs[:, None] - np.arange(1 - S, S, dtype=float)[None, :], axis=1))


def region_upper_sweep(S, samples=4096):
    """Sampled max of |P| on |z| = 1 and |z -+ 1| = 1/2, each circle inflated
    by half its arc step times the largest sampled sum of cofactors
    sum_k prod_{j != k} |z - j| (a bound for |P'| at the samples only)."""
    worst = 0.0
    for center, radius in ((0.0, 1.0), (1.0, 0.5), (-1.0, 0.5)):
        zs, vals = node_poly_on_circle(S, center, radius, samples)
        dists = np.abs(zs[:, None] - np.arange(1 - S, S, dtype=float)[None, :])
        deriv = sum(np.prod(np.delete(dists, k, axis=1), axis=1) for k in range(2 * S - 1))
        worst = max(worst, float(vals.max() + deriv.max() * math.pi * radius / samples))
    return worst


def circle_min_sweep(S, k, rho, samples=8192):
    """Sampled min of |P| on the circle |w - k| = rho."""
    return float(node_poly_on_circle(S, k, rho, samples)[1].min())


# ---------------------------------------------------------------------------
# Freeze script
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (mp.mpf,)) or isinstance(x, float):
        return mp.nstr(mp.mpf(x), 17)
    if isinstance(x, mp.mpc):
        return "(%s, %s)" % (mp.nstr(mp.re(x), 17), mp.nstr(mp.im(x), 17))
    return repr(x)


def main():
    mp.mp.dps = 50
    out = {}

    # fixture taus from rational j values
    j11 = Fraction(-122023936, 161051)
    j37 = Fraction(110592, 37)
    y11 = tau_from_j_on_line(mp.mpf(j11.numerator) / j11.denominator, mp.mpf(1) / 2)
    y37 = tau_from_j_on_line(mp.mpf(j37.numerator) / j37.denominator, 0)
    out["tau_im_cond11"] = y11
    out["tau_im_cond37"] = y37

    # Faltings heights of the four single-tau fixtures
    log_n11 = 5 * mp.log(11)
    log_n37 = mp.log(37)
    out["hF_cond11"] = mp_faltings(1, [(mp.mpf(1) / 2, y11)], log_n11)
    out["hF_cond37"] = mp_faltings(1, [(mp.mpf(0), y37)], log_n37)
    out["hF_cond11_quad"] = mp_faltings(2, [(mp.mpf(1) / 2, y11)] * 2, 2 * log_n11)
    out["hF_tau_i"] = mp_faltings(1, [(mp.mpf(0), mp.mpf(1))], 0)
    corner = (mp.mpf(1) / 2, mp.sqrt(3) / 2)
    out["hF_corner"] = mp_faltings(1, [corner], 0)

    # Delta / j spot values
    out["abs_delta_ram_i"] = abs(mp_delta(1j))
    out["abs_delta_ram_corner"] = abs(mp_delta(mp.mpc(*corner)))
    out["delta_ram_03_09"] = mp_delta(mp.mpc("0.3", "0.9"))
    out["j_at_2i"] = mp_j(2j)
    out["log_n11"] = log_n11
    out["log_n37"] = log_n37

    # j series sanity
    out["j_coeffs"] = j_series_coefficients(6)

    # torus integrals, independent adaptive quadrature
    out["scipy_l2_tau_i"] = scipy_l2_g1(1j, tol=1e-10)
    out["scipy_log_tau_i"] = scipy_log_integral_g1(1j, tol=1e-9)
    out["scipy_log_tau_5i"] = scipy_log_integral_g1(5j, tol=1e-9)
    out["log_grid_mean_002i_m16"] = mp_log_grid_mean_g1(mp.mpc(0, "0.02"), 16)
    out["log_grid_mean_002i_m32"] = mp_log_grid_mean_g1(mp.mpc(0, "0.02"), 32)
    out["log_integral_0001i"] = mp_log_integral_g1(mp.mpc(0, "0.001"))

    # Siegel reduction targets
    z, m = siegel_bfs(complex(5.3, 0.2))
    out["siegel_53_02_image"] = mp.mpc(z)
    out["siegel_53_02_matrix"] = m
    z2, m2 = siegel_bfs(complex(0.5, 0.5))
    out["siegel_halfhalf_image"] = mp.mpc(z2)
    out["siegel_halfhalf_matrix"] = m2

    # solver scans
    out["prop_ell_delta_h1"] = scan_prop_ell_delta(1.0)
    out["prop_ell_delta_h1000"] = scan_prop_ell_delta(1000.0, step=1e-4)
    out["implicit_delta_D1_H1000"] = scan_implicit_delta(1.0, 1000.0)

    # serre threshold neighborhood
    out["serre_f_3094027"] = mp_serre_f(3094027)
    out["serre_f_3094028"] = mp_serre_f(3094028)
    out["serre_H_3094027"] = mp.mpf(1000)  # first branch active, see test
    branch = (
        mp.pi / 6 * mp.sqrt(mp.mpf(3094027))
        + mp.log(mp.mpf(3094027))
        + mp.mpf(7) / 4 * mp.log(mp.mpf(3094027)) ** 2 / mp.sqrt(mp.mpf(3094027))
        + mp.mpf("2.95")
    )
    out["serre_second_branch_3094027"] = branch
    out["serre_j_log_upper_3094027"] = (
        2 * mp.pi * mp.sqrt(mp.mpf(3094027))
        + 6 * mp.log(mp.mpf(3094027))
        + 21 * mp.log(mp.mpf(3094027)) ** 2 / mp.sqrt(mp.mpf(3094027))
    )

    # u_S
    out["u_2"] = mp_u(2)
    out["u_1000"] = mp_u(1000)

    # hetj constant assembly
    B = 1194 * (2 * mp.pi / mp.log(1194)) ** 6 * mp.e ** (mp.mpf(1) / 9) * (2 * mp.pi) ** 12
    out["hetj_constant"] = mp.log(mp.pi) / 2 + mp.log(B) / 12
    y0 = mp.log(1194) / (2 * mp.pi)
    out["silverman_y0"] = y0
    out["silverman_f_y0"] = y0 ** 6 / 1194
    s32 = mp.sqrt(3) / 2
    out["silverman_f_sqrt32"] = s32 ** 6 * mp.e ** (-2 * mp.pi * s32)

    for k in sorted(out):
        print("%-28s %s" % (k, _fmt(out[k])))


if __name__ == "__main__":
    main()
