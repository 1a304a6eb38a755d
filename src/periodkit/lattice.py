"""Complex lattices in dimension one and two.

Reduction of elliptic period lattices to the standard fundamental domain,
shortest vectors under a positive Hermitian form, minima avoiding a complex
subspace, and exact index computations for integer matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
_BOUNDARY_EPS = 1e-12
# Largest coefficient box enumerated: about a minute at ~5e6 points per second.
MAX_GRID_POINTS = 250_000_000


@dataclass(frozen=True)
class SiegelTau:
    """Point of the standard fundamental domain for SL2(Z).

    INPUT:

    - ``re``, ``im`` -- real and imaginary parts; must be finite and satisfy
      |re| <= 1/2, im >= sqrt(3)/2 and re^2 + im^2 >= 1, all up to
      ``DEFAULT_TOL``.
    """

    re: float
    im: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"tau = ({self.re}, {self.im}) is not finite")
        if abs(self.re) > 0.5 + DEFAULT_TOL:
            raise ValueError(f"re={self.re} outside [-1/2, 1/2]")
        if self.im < math.sqrt(3.0) / 2.0 - DEFAULT_TOL:
            raise ValueError(f"im={self.im} below sqrt(3)/2")
        # im >= 1 already clears the unit circle; squaring a huge im would overflow
        if self.im < 1.0 and self.re**2 + self.im**2 < 1.0 - DEFAULT_TOL:
            raise ValueError("re^2 + im^2 < 1: point below the unit circle")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class UnimodularMap:
    """Integer Moebius map z -> (a z + b)/(c z + d) with a d - b c = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise TypeError("entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """Map equal to applying ``other`` first, then self."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


@dataclass(frozen=True)
class EllipticLattice:
    """Rank-2 lattice Z omega1 + Z omega2 with oriented basis.

    EXAMPLES: the square lattice is ``EllipticLattice(1, 1j)``.
    """

    omega1: complex
    omega2: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.omega1) and cmath.isfinite(self.omega2)):
            raise ValueError("periods must be finite")
        if self.omega1 == 0:
            raise ValueError("omega1 must be nonzero")
        ratio = self.omega2 / self.omega1
        if ratio.imag == 0:
            raise ValueError("degenerate lattice: basis is real-collinear")
        if ratio.imag < 0:
            raise ValueError("basis not oriented: Im(omega2/omega1) < 0")

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1


def _as_c_array(m, shape_hint: str) -> np.ndarray:
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{shape_hint} must be a 2-d matrix")
    return arr


class PolarizedTorus:
    """Complex torus of dimension 1 or 2 with a positive Hermitian form.

    INPUT:

    - ``g`` -- 1 or 2
    - ``periods`` -- g x 2g complex matrix; columns span the lattice
    - ``riemann_form`` -- g x g Hermitian positive matrix H; the squared
      norm of z is the real number H(z, z) = conj(z)^T H z

    H must be Hermitian and Im H integral on lattice pairs, both up to
    ``DEFAULT_TOL``.

    Instances are immutable; all arrays are copied and frozen.
    """

    __slots__ = ("g", "periods", "riemann_form")

    def __init__(self, g: int, periods, riemann_form) -> None:
        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        P = _as_c_array(periods, "periods")
        H = _as_c_array(riemann_form, "riemann_form")
        if P.shape != (g, 2 * g):
            raise ValueError(f"periods must be {g}x{2 * g}")
        if H.shape != (g, g):
            raise ValueError(f"riemann_form must be {g}x{g}")
        if not np.allclose(H, H.conj().T, rtol=0, atol=DEFAULT_TOL):
            raise ValueError("riemann_form is not Hermitian")
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() <= 0:
            raise ValueError("riemann_form is not positive-definite")
        # real rank of the 2g columns viewed in R^{2g}
        real_cols = np.vstack([P.real, P.imag])
        if np.linalg.matrix_rank(real_cols, tol=1e-12 * max(1.0, abs(P).max())) < 2 * g:
            raise ValueError("periods do not have full real rank")
        pairings = P.conj().T @ H @ P
        if np.abs(pairings.imag - np.round(pairings.imag)).max() > DEFAULT_TOL:
            raise ValueError("Im H is not integral on the lattice")
        P.setflags(write=False)
        H.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "periods", P)
        object.__setattr__(self, "riemann_form", H)

    def __setattr__(self, name, value):
        raise AttributeError("PolarizedTorus is immutable")

    def norm_sq(self, z) -> float:
        """H(z, z) for a complex g-vector z."""
        v = np.asarray(z, dtype=complex).reshape(self.g)
        return float((v.conj() @ self.riemann_form @ v).real)

    def gram(self) -> np.ndarray:
        """Real 2g x 2g Gram matrix of the period columns under the form."""
        G = self.periods.conj().T @ self.riemann_form @ self.periods
        return np.ascontiguousarray(G.real)

    def lattice_point(self, coeffs: Sequence[int]) -> np.ndarray:
        return self.periods @ np.asarray(coeffs, dtype=float)


@dataclass(frozen=True)
class Subspace:
    """Complex subspace of dimension 0 or 1 inside C^g, spanned by ``basis``."""

    ambient_g: int
    basis: tuple

    def __init__(self, ambient_g: int, basis: Iterable = ()) -> None:
        if ambient_g not in (1, 2):
            raise ValueError("ambient_g must be 1 or 2")
        vecs = []
        for b in basis:
            v = np.asarray(b, dtype=complex).reshape(-1)
            if v.shape != (ambient_g,):
                raise ValueError("basis vector has wrong dimension")
            if not np.any(v):
                raise ValueError("basis vector must be nonzero")
            v.setflags(write=False)
            vecs.append(v)
        if len(vecs) > 1:
            raise ValueError("subspace dimension must be 0 or 1")
        object.__setattr__(self, "ambient_g", ambient_g)
        object.__setattr__(self, "basis", tuple(vecs))

    @property
    def dim(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# Siegel reduction
# ---------------------------------------------------------------------------

def siegel_reduce(lat: EllipticLattice) -> tuple[SiegelTau, UnimodularMap]:
    """Reduce omega2/omega1 into the standard fundamental domain.

    Returns (tau, m) with m mapping omega2/omega1 to tau. Boundary ties are
    broken deterministically: Re tau = +1/2 is preferred to -1/2, and on the
    unit circle the representative with Re tau >= 0 is chosen.
    """
    z = lat.tau
    word = UnimodularMap(1, 0, 0, 1)
    for _ in range(10_000):
        n = round(z.real)
        if n != 0:
            z = complex(z.real - n, z.imag)
            word = UnimodularMap(1, -n, 0, 1).compose(word)
        if abs(z) < 1.0 - _BOUNDARY_EPS:
            z = -1.0 / z
            word = UnimodularMap(0, -1, 1, 0).compose(word)
            continue
        break
    else:
        raise RuntimeError("reduction did not terminate")
    # boundary ties
    if abs(z.real + 0.5) <= _BOUNDARY_EPS:
        z = complex(z.real + 1.0, z.imag)
        word = UnimodularMap(1, 1, 0, 1).compose(word)
    if abs(abs(z) - 1.0) <= _BOUNDARY_EPS and z.real < -_BOUNDARY_EPS:
        z = -1.0 / z
        word = UnimodularMap(0, -1, 1, 0).compose(word)
    return SiegelTau(z.real, z.imag), word


def rho_inverse_squared(tau: SiegelTau) -> float:
    """Inverse-square lattice minimum of the reduced lattice Z + Z tau.

    With the norm |z|^2 / Im tau the shortest vector of a reduced lattice is
    1, so the inverse squared minimum equals Im tau.
    """
    return tau.im


# ---------------------------------------------------------------------------
# Shortest vectors and avoidance minima
# ---------------------------------------------------------------------------

def _box_bounds(gram: np.ndarray, radius_sq: float) -> list[int]:
    """Per-coordinate bounds: the ellipsoid n^T G n <= R^2 has |n_i| <= R sqrt((G^-1)_ii)."""
    inv_diag = np.diag(np.linalg.inv(gram)).real
    return [int(math.floor(math.sqrt(max(radius_sq, 0.0) * d) + 1e-9)) for d in inv_diag]


def _grid_chunks(bounds: Sequence[int], chunk_rows: int = 200_000):
    """Integer coefficient grid [-b_i, b_i]^k, yielded as (rows, k) arrays."""
    points = math.prod(2 * b + 1 for b in bounds)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"coefficient box holds {points} points, more than {MAX_GRID_POINTS}")
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    if len(axes) == 1:
        yield axes[0].reshape(-1, 1)
        return
    tail = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, len(axes) - 1)
    buf: list[np.ndarray] = []
    rows = 0
    for n0 in axes[0]:
        block = np.hstack([np.full((tail.shape[0], 1), n0, dtype=np.int64), tail])
        buf.append(block)
        rows += block.shape[0]
        if rows >= chunk_rows:
            yield np.vstack(buf)
            buf, rows = [], 0
    if buf:
        yield np.vstack(buf)


def shortest_vector(torus: PolarizedTorus) -> tuple[tuple[int, ...], float]:
    """Nonzero lattice vector of minimal norm.

    The search box is certified complete: starting radius is the smallest
    diagonal Gram entry, and any coefficient vector reaching outside the box
    has norm above that radius.
    """
    G = torus.gram()
    diag = np.diag(G)
    best_sq = float(diag.min())
    best = tuple(int(v) for v in np.eye(2 * torus.g, dtype=int)[int(diag.argmin())])
    for N in _grid_chunks(_box_bounds(G, best_sq * (1.0 + 1e-12))):
        Nf = N.astype(float)
        q = np.einsum("ij,jk,ik->i", Nf, G, Nf)
        q[np.all(N == 0, axis=1)] = np.inf
        k = int(q.argmin())
        if q[k] < best_sq * (1.0 - 1e-15):
            best_sq, best = float(q[k]), tuple(int(x) for x in N[k])
    return best, math.sqrt(best_sq)


def _line_distances(torus: PolarizedTorus, v: np.ndarray, N: np.ndarray):
    """Norms and line-distances for a block of coefficient rows.

    Returns (norms, dists) where dists are H-distances to the line C v.
    """
    H = torus.riemann_form
    W = torus.periods @ N.T.astype(float)  # g x K points
    norms_sq = np.einsum("ik,ij,jk->k", W.conj(), H, W).real
    hv = float((v.conj() @ H @ v).real)
    proj = v.conj() @ H @ W
    # residual form: stable near zero, unlike the Pythagorean subtraction
    R = W - np.outer(v, proj / hv)
    dist_sq = np.einsum("ik,ij,jk->k", R.conj(), H, R).real
    return np.sqrt(np.maximum(norms_sq, 0.0)), np.sqrt(np.maximum(dist_sq, 0.0))


def _sublattice_in_line(torus: PolarizedTorus, v: np.ndarray) -> tuple[list[np.ndarray], float]:
    """Two independent lattice points on the line C v, plus an off-line distance.

    Expands the coefficient search box until the intersection sublattice shows
    rank 2; also returns the smallest observed distance among off-line points,
    which upper-bounds the avoidance minimum.
    """
    for bound in (2, 4, 8, 16, 32):
        off_line_best = math.inf
        in_line: list[tuple[float, np.ndarray]] = []
        for N in _grid_chunks([bound] * (2 * torus.g)):
            N = N[np.any(N != 0, axis=1)]
            norms, dists = _line_distances(torus, v, N)
            member = dists < DEFAULT_TOL * np.maximum(1.0, norms)
            if np.any(~member):
                off_line_best = min(off_line_best, float(dists[~member].min()))
            for k in np.flatnonzero(member):
                in_line.append((float(norms[k]), torus.lattice_point(N[k])))
        in_line.sort(key=lambda t: t[0])
        basis: list[np.ndarray] = []
        for _, w in in_line:
            if not basis:
                basis.append(w)
            else:
                # reject w real-collinear with the first generator
                coeff = (basis[0].conj() @ w) / (basis[0].conj() @ basis[0])
                if abs(coeff.imag) > 1e-12 or not np.allclose(coeff.real * basis[0], w, atol=1e-9):
                    basis.append(w)
            if len(basis) == 2:
                return basis, off_line_best
    raise ValueError("subspace does not intersect the lattice in a rank-2 subgroup")


def avoidance_minimum(torus: PolarizedTorus, sub: Subspace) -> float:
    """Minimal H-distance to the subspace among lattice points off the subspace.

    For the zero subspace this is the shortest-vector norm. For a line inside
    a two-dimensional torus the search radius is certified: a minimizer can be
    translated by the intersection sublattice so that its norm is at most
    sqrt(mu^2 + d^2), where mu bounds the covering radius of the intersection
    sublattice inside the line and d is any witnessed off-line distance.
    """
    if sub.ambient_g != torus.g:
        raise ValueError("subspace ambient dimension does not match torus")
    if sub.dim == 0:
        return shortest_vector(torus)[1]
    if sub.dim >= torus.g:
        raise ValueError("subspace must be proper")
    v = sub.basis[0]
    basis, delta_ub = _sublattice_in_line(torus, v)
    if not math.isfinite(delta_ub):
        raise ValueError("no lattice point off the subspace in the search range")
    mu = 0.5 * (math.sqrt(torus.norm_sq(basis[0])) + math.sqrt(torus.norm_sq(basis[1])))
    radius_sq = mu * mu + delta_ub * delta_ub
    best = delta_ub
    for N in _grid_chunks(_box_bounds(torus.gram(), radius_sq * (1.0 + 1e-9))):
        N = N[np.any(N != 0, axis=1)]
        norms, dists = _line_distances(torus, v, N)
        off = dists >= DEFAULT_TOL * np.maximum(1.0, norms)
        if np.any(off):
            best = min(best, float(dists[off].min()))
    return best


def smith_index(m: Sequence[Sequence[int]]) -> tuple[int, bool]:
    """Index and cyclicity of the subgroup cut out by an integer 2x2 matrix.

    Returns (|det m|, first Smith invariant == 1); the quotient group is
    cyclic exactly when the gcd of the entries is 1. Exact integer arithmetic.
    """
    (a, b), (c, d) = m
    for entry in (a, b, c, d):
        if not isinstance(entry, int):
            raise TypeError("matrix entries must be integers")
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    return abs(det), math.gcd(math.gcd(a, b), math.gcd(c, d)) == 1
