"""Gaussian-normalized theta sums on tori of dimension one and two.

The central object is the weighted series F whose squared modulus integrates
to 1 over the doubled torus. Torus integrals use tensor midpoint grids with
the half-step offset keeping theta zeros at cell corners.

F is a finite Fourier series in q, so the L2 norm skips the q-grid: by
discrete Parseval the mean of |F|^2 over the m^g midpoint q-points is the
sum of its squared coefficients, folded per axis by n mod m when
2 box + 1 > m, which equals the midpoint grid sum exactly. That sum is
reduced by numpy's pairwise summation rather than by BLAS, so it does not
depend on the BLAS thread count. The log integral, evaluated for g = 1
only, skips the grid too: the Jacobi triple product turns the mean of log|F|
over the midpoint q-points into sums of log|1 + e^z| over three families of
terms, one shared by both resolutions of the Richardson step and one per
resolution, all evaluated in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .heights import CurveRecord, convert_height, faltings_height_silverman

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

def _axis_grid(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def _tensor_grid(g: int, m: int) -> np.ndarray:
    axes = [_axis_grid(m)] * g
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)


def _coefficients(tau: RiemannTau, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Term indices ns, coefficients A and scale det(2y)^{1/4} of F at the points ps.

    A[k, i] = exp(i pi (n_k + p_i)^T tau (n_k + p_i)), so that
    F(p_i, q) = scale * sum_k A[k, i] exp(2 i pi n_k . q).
    """
    g = tau.g
    box = default_truncation(tau)
    axes = [np.arange(-box, box + 1)] * g
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    scale = float(np.linalg.det(2.0 * tau.y)) ** 0.25
    A_blocks = []  # built in p-blocks to bound the (terms x points x g) temporary
    for j0 in range(0, ps.shape[0], 4096):
        w = ns[:, None, :] + ps[None, j0 : j0 + 4096, :]
        quad = np.einsum("kij,jl,kil->ki", w, tau.matrix, w)
        A_blocks.append(np.exp(1j * math.pi * quad))
        del w, quad
    return ns, np.concatenate(A_blocks, axis=1), scale


_BLOCK = 1 << 16  # entries per call of _log_abs_1p_exp in _sum_log_abs_1p_exp


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
    """Sum of log|1 + e^z| per family (z_of, n_max, width), over z = z_of(n), n = 1..n_max.

    z_of maps an array of n to an array of width entries per n. Each family
    is cut into pieces of at most _BLOCK entries, because n_max grows like
    1/Im tau, and consecutive pieces of all families are packed into blocks
    of at most _BLOCK entries. Each block takes one _log_abs_1p_exp call, and
    each piece's slice of it is summed into its own family's total.
    """
    totals = [0.0] * len(families)
    block: list = []
    size = 0
    for k, (z_of, n_max, width) in enumerate(families):
        step = max(1, _BLOCK // width)
        for n0 in range(1, n_max + 1, step):
            z = z_of(np.arange(n0, min(n0 + step, n_max + 1))).ravel()
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
    """Means of log|F| over the m x m midpoint grids for g = 1, one per m, with no grid.

    See torus_log_integral for the identity. With T = TAIL_EXPONENT, the
    product family log|1 - Q^2n| has terms of size about |Q^2n| = e^(-2 pi y n),
    and the q-mean family at resolution m has |e^z| <= e^(-pi m y (2n - 3)) for
    n >= 2. Each family is summed through n = N + 1, where N is the first n
    whose term is at most e^-T: N = ceil(T / (2 pi y)) for the product family
    and N = ceil(1.5 + T / (2 pi m y)) for the q-mean family. Its first omitted
    term is therefore at most e^-(T + 4 pi y), respectively e^-(T + 4 pi m y).
    The product family does not depend on m and is summed once; all families
    share the blocks of one _sum_log_abs_1p_exp pass.
    """
    t = complex(tau.matrix[0, 0])
    y = t.imag
    n_prod = math.ceil(TAIL_EXPONENT / (2.0 * math.pi * y)) + 1
    # 1 - Q^2n = 1 + e^(i pi (2 n tau + 1))
    families = [(lambda n: 1j * math.pi * (2.0 * n * t + 1.0), n_prod, 1)]
    for m in ms:
        n_mean = math.ceil(1.5 + TAIL_EXPONENT / (2.0 * math.pi * m * y)) + 1
        two_p = np.array([2.0, -2.0])[:, None, None] * _axis_grid(m)
        # 1 + exp(i pi m tau (2n - 1 +- 2p)) for (n, +-) at each of the m p-points
        families.append((
            lambda n, m=m, two_p=two_p: 1j * math.pi * m * t * ((2.0 * n - 1.0)[:, None] + two_p),
            n_mean,
            2 * m,
        ))
    product, *q_sums = _sum_log_abs_1p_exp(families)
    means = []
    for m, q_sum in zip(ms, q_sums):
        mean_p_sq = 1.0 / 3.0 - 1.0 / (12.0 * m * m)  # exact mean of p^2 over the midpoints
        # (1/m) sum over (n, +-) at each p-point, averaged over the m p-points
        means.append(0.25 * math.log(2.0 * y) - math.pi * y * mean_p_sq + product + q_sum / (m * m))
    return means


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
    C_r(p) = sum over n = r (mod m) of A_n(p) exp(i pi sum(n) / m),
    folded per axis by n mod m (nothing to fold while 2 box + 1 <= m). The
    mean of |F|^2 over the q-grid is therefore scale^2 sum_r |C_r(p)|^2, and
    the value returned, its mean over the p-grid, equals the full midpoint
    grid sum in exact arithmetic, aliasing included, at O((2 box + 1)^g m^g)
    work instead of O((2 box + 1)^g m^2g).
    """
    m = _resolution(quadrature_points_per_axis)
    ns, A, scale = _coefficients(tau, _tensor_grid(tau.g, m))
    C = A * np.exp(1j * math.pi * ns.sum(axis=1) / m)[:, None]
    C = C.reshape((2 * int(ns.max()) + 1,) * tau.g + (A.shape[1],))
    for axis in range(tau.g):
        C = _fold(C, axis, m)
    # numpy's pairwise sums, not a BLAS reduction, whose result depends on its thread count
    return scale * scale * float((C.real**2).sum() + (C.imag**2).sum()) / A.shape[1]


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
    exactly for every complex a, so the mean of log|F(p, .)| over the q-points is
    (1/4) log 2y - pi y p^2 + sum_n log|1 - Q^2n|
    + (1/m) sum_(n, +-) log|1 + exp(i pi m tau (2n - 1 +- 2p))|,
    and a grid mean costs O(m N) for N product terms instead of
    O(m^2 (2 box + 1)). The product family sum_n log|1 - Q^2n| does not depend
    on m, so both resolutions take it from one sum, and log|1 + e^z| is
    evaluated once over the terms of the product family and of the two q-mean
    families together (see _product_log_means for the term counts).
    """
    if tau.g != 1:
        raise ValueError("the log integral is evaluated for g = 1 only")
    m = _resolution(quadrature_points_per_axis)
    coarse, fine = _product_log_means(tau, m, 2 * m)
    return (4.0 * fine - coarse) / 3.0


def bost_inequality_check(record: CurveRecord, quadrature_points_per_axis: int = 64) -> BoundReport:
    """Height floor against the mean log integral over the embeddings.

    lhs = -(h + (1/2) log 2 pi)/2 with h the curve height in the working
    normalization; rhs = mean over embeddings of the torus log integral.
    """
    h = convert_height(faltings_height_silverman(record), "paper_h", g=1).value
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
