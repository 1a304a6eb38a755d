"""Gaussian-normalized theta sums on tori of dimension one and two.

The central object is the weighted series F whose squared modulus integrates
to 1 over the doubled torus. Torus integrals are midpoint means over tensor
grids, with the half-step offset keeping theta zeros at cell corners, and
neither integral builds its grid. The L2 norm uses discrete Parseval in q
and streams the p-grid in blocks, so its peak memory is a few
(2 box + 1)^g x block x 16 B arrays whatever m is, and it reduces with
numpy's pairwise sums rather than BLAS, so it does not depend on the BLAS
thread count. The log integral, for g = 1 only, uses the Jacobi triple
product: every grid mean is a closed form in two 1-D families of
log|1 + e^z| terms, P over 1 - Q^2n and S over 1 + Q^(2n-1), and the
Richardson limit is (1/4) log 2y + log|eta(tau)| for every even m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .heights import H_SHIFT, CurveRecord, faltings_height_silverman

TAIL_EXPONENT = 40.0  # e^-40 sits below double-precision noise


@dataclass(frozen=True)
class RiemannTau:
    """Symmetric g x g matrix with positive-definite imaginary part."""

    g: int
    matrix: np.ndarray

    def __init__(self, g: int, matrix) -> None:
        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        m = np.array(matrix, dtype=complex).reshape(g, g)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(m - m.T).max() > 1e-9:
            raise ValueError("matrix must be symmetric")
        if not _min_eigenvalue(m.imag) > 0:
            raise ValueError("imaginary part must be positive-definite")
        m.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "matrix", m)

    @property
    def y(self) -> np.ndarray:
        return self.matrix.imag

    @property
    def lambda_min(self) -> float:
        return _min_eigenvalue(self.y)


def _min_eigenvalue(y: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix; the entry itself for g=1."""
    if y.shape == (1, 1):
        return float(y[0, 0])
    return float(np.linalg.eigvalsh(y).min())


def default_truncation(tau: RiemannTau) -> int:
    return int(math.ceil(math.sqrt(TAIL_EXPONENT / (math.pi * tau.lambda_min)))) + 2


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # entries per block of the L2 stream and per _log_abs_1p_exp call


def _log_abs_1p_exp(z: np.ndarray) -> np.ndarray:
    """log|1 + e^z| elementwise.

    For Re z > 0, log|1 + e^z| = Re z + log|1 + e^-z|, and with a = -|Re z| <= 0,
    |1 + e^(a + i Im z)|^2 = expm1(a)^2 + 4 e^a cos^2(Im z / 2), which neither
    overflows nor cancels near the zeros of 1 + e^z. For a <= -50 that square
    rounds to exactly 1 (expm1(a) to -1, and 4 e^a < 2^-70), so log|1 + e^z|
    is max(Re z, 0) there, with the same bits, and only the other entries go
    through exp, cos and log; most terms of a family lie that deep.
    """
    a = -np.abs(z.real)
    live = a > -50.0
    out = np.maximum(z.real, 0.0)
    a = a[live]
    mod_sq = np.expm1(a) ** 2 + 4.0 * np.exp(a) * np.cos(0.5 * z.imag[live]) ** 2
    out[live] += 0.5 * np.log(mod_sq)
    return out


def _sum_log_abs_1p_exp(families) -> list[float]:
    """Sum of log|1 + e^z| per family (z_of, n_max), over z = z_of(n), n = 1..n_max.

    z_of maps an array of n to an array of z. Each family is cut into pieces
    of at most _BLOCK entries, because n_max grows like 1/Im tau, and
    consecutive pieces of all families are packed into blocks of at most
    _BLOCK entries. Each block takes one _log_abs_1p_exp call, and each
    piece's slice of it is summed into its own family's total.
    """
    totals = [0.0] * len(families)
    block: list = []
    size = 0
    for k, (z_of, n_max) in enumerate(families):
        for n0 in range(1, n_max + 1, _BLOCK):
            z = z_of(np.arange(n0, min(n0 + _BLOCK, n_max + 1)))
            if block and size + z.size > _BLOCK:
                _sum_block(block, totals)
                block, size = [], 0
            block.append((k, z))
            size += z.size
    _sum_block(block, totals)
    return totals


def _sum_block(block: list, totals: list) -> None:
    values = _log_abs_1p_exp(np.concatenate([z for _, z in block]))
    i = 0
    for k, z in block:
        totals[k] += float(values[i : i + z.size].sum())
        i += z.size


def _product_log_means(tau: RiemannTau, *ms: int) -> list[float]:
    """Means of log|F| over the m x m midpoint grids for g = 1, one per even m, with no grid.

    See torus_log_integral for the identity: with Q = e^(i pi tau), every
    mean is (1/4) log 2y - pi y / 12 + P + (pi y / 12 + 2 S) / m^2 for the
    two families P = sum_n log|1 - Q^2n| and S = sum_n log|1 + Q^(2n-1)|,
    which do not depend on m. With T = TAIL_EXPONENT, their terms have size
    about e^(-2 pi y n) and e^(-pi y (2n - 1)). Each family is summed through
    n = N + 1, where N is the first n whose term is at most e^-T:
    N = ceil(T / (2 pi y)) for P and N = ceil(1/2 + T / (2 pi y)) for S. Its
    first omitted term is therefore at most e^-(T + 4 pi y). Both families
    share the blocks of one _sum_log_abs_1p_exp pass.
    """
    t = complex(tau.matrix[0, 0])
    y = t.imag
    reach = TAIL_EXPONENT / (2.0 * math.pi * y)
    product, odd = _sum_log_abs_1p_exp([
        # 1 - Q^2n = 1 + e^(i pi (2 n tau + 1))
        (lambda n: 1j * math.pi * (2.0 * n * t + 1.0), math.ceil(reach) + 1),
        # 1 + Q^(2n-1) = 1 + e^(i pi (2n - 1) tau)
        (lambda n: 1j * math.pi * (2.0 * n - 1.0) * t, math.ceil(0.5 + reach) + 1),
    ])
    base = 0.25 * math.log(2.0 * y) - math.pi * y / 12.0 + product
    return [base + (math.pi * y / 12.0 + 2.0 * odd) / (m * m) for m in ms]


def _fold(C: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Sum the entries along one axis whose indices agree mod m; a no-op for length <= m."""
    n = C.shape[axis]
    if n <= m:
        return C
    pad = [(0, 0)] * C.ndim
    pad[axis] = (0, -n % m)
    C = np.pad(C, pad)
    return C.reshape(C.shape[:axis] + (-1, m) + C.shape[axis + 1 :]).sum(axis=axis)


def _resolution(quadrature_points_per_axis: int) -> int:
    if quadrature_points_per_axis < 16:
        raise ValueError("quadrature resolution must be >= 16 per axis")
    m = int(quadrature_points_per_axis)
    return m + (m % 2)  # even grid keeps the standard theta zero at cell corners


def torus_l2_norm(tau: RiemannTau, quadrature_points_per_axis: int = 64) -> float:
    """Midpoint quadrature of the squared modulus over (R^g/Z^g)^2; expect 1.

    Evaluated by discrete Parseval in q, without the q-grid. On the midpoint
    q-grid, exp(2 i pi n . q) = exp(i pi sum(n) / m) exp(2 i pi n . j / m), so
    F(p, .) is an m^g-point DFT of the coefficients
    C_r(p) = sum over n = r (mod m) of exp(i pi (n + p)^T tau (n + p) + i pi sum(n) / m),
    folded per axis by n mod m (nothing to fold while 2 box + 1 <= m). The
    mean of |F|^2 over the q-grid is therefore det(2y)^(1/2) sum_r |C_r(p)|^2,
    and its mean over the p-grid equals the full midpoint grid sum in exact
    arithmetic, aliasing included, at O((2 box + 1)^g m^g) work.

    The p-grid is streamed in blocks of max(1, _BLOCK // (2 box + 1)^g)
    points. A block's (2 box + 1)^g x block exponents are built in place from
    i pi (n^T tau n + sum(n) / m), i pi p^T tau p and one product
    2 i pi (tau n)_j p_j per axis, then exponentiated and folded, so peak
    memory is a few such 16 B arrays, about 1 MB each, whatever m is. Each
    block is reduced by numpy's pairwise sum, not by BLAS, whose result
    depends on its thread count, and the block sums by math.fsum.
    """
    m = _resolution(quadrature_points_per_axis)
    g, t = tau.g, tau.matrix
    box = default_truncation(tau)
    axes = [np.arange(-box, box + 1)] * g
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    tn = [sum(t[j, l] * ns[:, l] for l in range(g)) for j in range(g)]  # (tau n)_j per term
    term = 1j * math.pi * (sum(ns[:, j] * tn[j] for j in range(g)) + ns.sum(axis=1) / m)
    cross = [2j * math.pi * u for u in tn]
    step = max(1, _BLOCK // ns.shape[0])
    sums = []
    for i0 in range(0, m**g, step):
        i = np.arange(i0, min(i0 + step, m**g))
        p = [(i // m ** (g - 1 - j) % m + 0.5) / m for j in range(g)]  # row-major p-grid
        point = 1j * math.pi * sum(p[j] * sum(t[j, l] * p[l] for l in range(g)) for j in range(g))
        E = np.add.outer(term, point)
        prod = np.empty_like(E)
        for j in range(g):
            E += np.multiply.outer(cross[j], p[j], out=prod)
        C = np.exp(E, out=E).reshape((2 * box + 1,) * g + (-1,))
        for axis in range(g):
            C = _fold(C, axis, m)
        sums.append(float((C.real**2).sum() + (C.imag**2).sum()))
    return float(np.linalg.det(2.0 * tau.y)) ** 0.5 * math.fsum(sums) / m**g


def torus_log_integral(tau: RiemannTau, quadrature_points_per_axis: int = 64) -> float:
    """Quadrature of log|F| over the doubled torus, for g = 1.

    The integrand has integrable log singularities along the theta divisor;
    the leading quadrature error from cells meeting it scales as the square
    of the step, so the midpoint mean over the m x m grid is
    Richardson-extrapolated from one internal resolution doubling.

    The mean is evaluated without the grid. There
    F(p, q) = (2y)^(1/4) e^(i pi p^2 tau) theta_3(p tau + q | tau), and with
    Q = e^(i pi tau) the Jacobi triple product gives
    theta_3(z | tau) = prod_n (1 - Q^2n)(1 + Q^(2n-1) e^(2 i pi z))(1 + Q^(2n-1) e^(-2 i pi z)).
    On the even midpoint grid q_j = (j + 1/2)/m, prod_j (1 + a e^(+-2 i pi q_j)) = 1 + a^m
    for every complex a, so the mean of log|F(p, .)| over the q-points is
    (1/4) log 2y - pi y p^2 + sum_n log|1 - Q^2n| + (1/m) sum_(n, +-) log|1 + Q^k|,
    k = m (2n - 1) +- 2 m p. Over the midpoints p, k runs over the odd
    integers in (-m, m) once and those above m twice; a negative k gives
    log|1 + Q^k| = pi |k| y + log|1 + Q^|k||, and p^2 averages to
    1/3 - 1/(12 m^2). So the grid mean is
    (1/4) log 2y - pi y / 12 + P + (pi y / 12 + 2 S) / m^2, with the two 1-D
    families P = sum_n log|1 - Q^2n| and S = sum_n log|1 + Q^(2n-1)| shared
    by both resolutions (see _product_log_means). The Richardson step cancels
    the 1/m^2 term: the result is (1/4) log 2y + log|eta(tau)| for every even m.
    """
    if tau.g != 1:
        raise ValueError("the log integral is evaluated for g = 1 only")
    m = _resolution(quadrature_points_per_axis)
    coarse, fine = _product_log_means(tau, m, 2 * m)
    return (4.0 * fine - coarse) / 3.0


def bost_inequality_check(record: CurveRecord, quadrature_points_per_axis: int = 64) -> BoundReport:
    """Height floor against the mean log integral over the embeddings.

    lhs = -(h + (1/2) log 2 pi)/2 with h = h_F + H_SHIFT the paper's height
    of the curve; rhs = mean over embeddings of the torus log integral.
    """
    h = faltings_height_silverman(record) + H_SHIFT
    a = -(h + 0.5 * math.log(2.0 * math.pi)) / 2.0
    total = 0.0
    for t in record.embeddings:
        rt = RiemannTau(1, [[complex(t.re, t.im)]])
        total += torus_log_integral(rt, quadrature_points_per_axis)
    mean = total / len(record.embeddings)
    return BoundReport(
        "height_vs_mean_log_integral",
        a,
        mean,
        inputs={"label": record.label, "h": h, "n_embeddings": record.degree},
        tol=1e-9,
    )
