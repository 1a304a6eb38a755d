"""Plane lattices from elliptic period ratios.

Reduction of a period ratio to the standard fundamental domain, the
shortest vector of a lattice Z w1 + Z w2 in C, the distance of the lattice of
E_tau x E_tau from a complex line, and exact index computations for integer
matrices. Both minima are Lagrange-Gauss reductions in the plane: the
shortest vector of the two periods, and for the line the shortest vector of
the four periods projected onto its orthogonal complement. Every function
takes plain numbers.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

DEFAULT_TOL = 1e-9


class SiegelTau(NamedTuple("SiegelTau", [("re", float), ("im", float)])):
    """Point of the standard fundamental domain for SL2(Z).

    INPUT:

    - ``re``, ``im`` -- real and imaginary parts; must be finite and satisfy
      |re| <= 1/2, im >= sqrt(3)/2 and re^2 + im^2 >= 1, all up to
      ``DEFAULT_TOL``.
    """

    __slots__ = ()

    def __new__(cls, re: float, im: float) -> SiegelTau:
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"tau = ({re}, {im}) is not finite")
        if abs(re) > 0.5 + DEFAULT_TOL:
            raise ValueError(f"re={re} outside [-1/2, 1/2]")
        if im < math.sqrt(3.0) / 2.0 - DEFAULT_TOL:
            raise ValueError(f"im={im} below sqrt(3)/2")
        # im >= 1 already clears the unit circle; squaring a huge im would overflow
        if im < 1.0 and re**2 + im**2 < 1.0 - DEFAULT_TOL:
            raise ValueError("re^2 + im^2 < 1: point below the unit circle")
        return super().__new__(cls, re, im)

    # namedtuple's _make, which _replace calls, skips __new__ and so these checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


class UnimodularMap(NamedTuple("UnimodularMap", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """Integer Moebius map z -> (a z + b)/(c z + d) with a d - b c = 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> UnimodularMap:
        for entry in (a, b, c, d):
            if not isinstance(entry, int):
                raise TypeError("entries must be integers")
        if a * d - b * c != 1:
            raise ValueError("determinant must be exactly 1")
        return super().__new__(cls, a, b, c, d)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)


# ---------------------------------------------------------------------------
# Siegel reduction
# ---------------------------------------------------------------------------

def siegel_reduce(z: complex) -> tuple[SiegelTau, UnimodularMap]:
    """Reduce the period ratio z, with Im z > 0, into the standard fundamental domain.

    Returns (tau, m) with m mapping z to tau. Boundary ties are
    broken deterministically: Re tau = +1/2 is preferred to -1/2, and on the
    unit circle the representative with Re tau >= 0 is chosen.

    The reduction is exact. A finite z is (X + iY)/den with integers X, Y and
    den, so it is the root of the integral form den^2 |m + n z|^2 =
    (A, B, C) = (den^2, 2 den X, X^2 + Y^2), and Gauss reduction of that form
    (Cohen, GTM 138, 5.4) runs in integers. Its discriminant 4AC - B^2 =
    (2 den Y)^2 is invariant, so tau = (B/(2A), den Y/A), each correctly
    rounded. Raises ``ValueError`` where Im tau overflows a double (Im z =
    1e-320 maps to Im tau = 1e320).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("periods must be finite")
    if not z.imag > 0:
        raise ValueError(f"Im tau = {z.imag} is not positive")
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(xd, yd)  # both are powers of two
    X, Y = xn * (den // xd), yn * (den // yd)
    A, B, C = den * den, 2 * den * X, X * X + Y * Y
    a, b, c, d = 1, 0, 0, 1  # the word so far, built into a UnimodularMap once at the end
    while True:
        n = -((A - B) // (2 * A))  # Re tau - n in (-1/2, 1/2]
        if n:
            B, C = B - 2 * n * A, C - n * B + n * n * A
            a, b = a - n * c, b - n * d
        if C > A or (C == A and B >= 0):  # |tau| > 1, or |tau| = 1 with Re tau >= 0
            break
        A, B, C = C, -B, A
        a, b, c, d = -c, -d, a, b
    try:
        tau = SiegelTau(B / (2 * A), den * Y / A)
    except OverflowError:
        raise ValueError(f"Im z = {z.imag} is too close to the real axis to reduce in double precision") from None
    return tau, UnimodularMap(a, b, c, d)


def rho_inverse_squared(tau: SiegelTau) -> float:
    """Inverse-square lattice minimum of the reduced lattice Z + Z tau.

    With the norm |z|^2 / Im tau the shortest vector of a reduced lattice is
    1, so the inverse squared minimum equals Im tau.
    """
    return tau.im


# ---------------------------------------------------------------------------
# Shortest vectors and avoidance minima
# ---------------------------------------------------------------------------

def _cross(a: complex, b: complex) -> float:
    """Signed area of the parallelogram on a and b, viewed in R^2."""
    return (a.conjugate() * b).imag


def _gauss_reduce(a: complex, b: complex) -> tuple[complex, complex]:
    """Lagrange-Gauss reduction of an R-independent pair: a is a shortest vector of Z a + Z b."""
    if abs(a) > abs(b):
        a, b = b, a
    while True:
        b -= round((b / a).real) * a
        if abs(b) >= abs(a):
            return a, b
        a, b = b, a


def shortest_vector(w1: complex, w2: complex) -> tuple[tuple[int, int], float]:
    """Shortest nonzero vector of the lattice Z w1 + Z w2 under |z|: its coefficients and its length.

    The first vector of the Lagrange-Gauss reduced pair is a shortest one;
    its coefficients in (w1, w2) solve two signed-area equations. The periods
    must be finite, nonzero and R-independent: the sine of the angle between
    them must exceed 1e-12.
    """
    w1, w2 = complex(w1), complex(w2)
    if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise ValueError("periods must be finite")
    if not (w1 and w2) or abs(_cross(w1 / abs(w1), w2 / abs(w2))) <= 1e-12:
        raise ValueError("periods do not have full real rank")
    a, _ = _gauss_reduce(w1, w2)
    det = _cross(w1, w2)
    return (round(_cross(a, w2) / det), round(_cross(w1, a) / det)), abs(a)


def avoidance_minimum(tau: complex, v) -> float:
    """Distance to the line C v, v in C^2, of the nearest lattice point of E_tau x E_tau off it.

    The periods are (1, 0), (tau, 0), (0, 1) and (0, tau), and the norm is
    H(z, z) = |z|^2 / Im tau. The minimum is the shortest nonzero vector of
    the lattice projected onto the H-orthogonal complement of v: with
    u*Hv = 0 and u*Hu = 1, the period p_k has coordinate c_k = u*H p_k
    there, and |c_k| is its distance to the line; u is proportional to
    (conj v_2, -conj v_1), so the c_k are (v_2, v_2 tau, -v_1, -v_1 tau) up
    to a positive factor. The c_k are folded into a Gauss-reduced pair
    (a, b): a residue of at most DEFAULT_TOL times the longest period lies on
    the line; any other residue has coordinates in [-1/2, 1/2] in (a, b),
    replaces a basis vector and so at least halves the covolume. When the
    line meets the lattice in rank 2 the projection is a lattice and the fold
    ends with |a| as the minimum. Otherwise the projection is dense, and the
    fold raises once the covolume falls below DEFAULT_TOL times its start,
    after at most 30 replacements.
    """
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValueError("tau must be finite")
    if not tau.imag > 0:
        raise ValueError(f"Im tau = {tau.imag} is not positive")
    v1, v2 = (complex(c) for c in v)
    if not (cmath.isfinite(v1) and cmath.isfinite(v2)) or not (v1 or v2):
        raise ValueError("line must be spanned by a finite nonzero vector of C^2")
    # v scaled to largest entry 1 (exact when it already is), so H v neither overflows nor underflows to 0
    top = max(abs(v1), abs(v2))
    v1, v2 = v1 / top, v2 / top
    inv = 1.0 / tau.imag
    h1, h2 = inv * v1, inv * v2
    # H v scaled to largest entry 1: H v underflows where H is tiny (Im tau ~ 1e298)
    scale = 1.0 / max(abs(h1), abs(h2))
    w1, w2 = h2 * scale, -(h1 * scale)  # conj(u), unnormalised
    x1, x2 = inv * w1, inv * w2  # w H
    scale = 1.0 / math.sqrt((x1 * w1.conjugate() + x2 * w2.conjugate()).real)
    coords = [c * scale for c in (x1, x1 * tau, x2, x2 * tau)]
    zero = DEFAULT_TOL * max(1.0, abs(tau)) / math.sqrt(tau.imag)
    a = max(coords, key=abs)
    a, b = _gauss_reduce(a, max(coords, key=lambda c: abs(_cross(a, c))))
    covol = abs(_cross(a, b))
    # shortest first, so the basis carries the rounding of short vectors
    pending = sorted(coords, key=abs, reverse=True)
    while pending:
        g = pending.pop()
        det = _cross(a, b)
        x, y = _cross(g, b) / det, _cross(a, g) / det
        r = g - round(x) * a - round(y) * b
        if abs(r) <= zero:
            continue
        if abs(x - round(x)) >= abs(y - round(y)):
            pending.append(a)
            a = r
        else:
            pending.append(b)
            b = r
        a, b = _gauss_reduce(a, b)
        if abs(_cross(a, b)) < DEFAULT_TOL * covol:
            raise ValueError("subspace does not intersect the lattice in a rank-2 subgroup")
    return abs(a)


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
