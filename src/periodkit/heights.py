"""Stable heights of elliptic curves and the inequality reports built on them.

The stable height is computed from a minimal-discriminant norm and the
archimedean discriminant values; nothing here computes minimal models, the
records are trusted input.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional, Sequence

from .bounds import BoundReport
from .lattice import SiegelTau
from .modular import delta_on_upper_half_plane

# h = h_F + H_SHIFT, the paper's height for g = 1
H_SHIFT = 0.5 * math.log(math.pi)


class CurveRecord(NamedTuple("CurveRecord", [
    ("label", str), ("degree", int), ("embeddings", tuple),
    ("log_norm_minimal_discriminant", float), ("j_rational", Optional[tuple]),
])):
    """Elliptic curve over a number field, reduced to analytic data.

    INPUT:

    - ``label`` -- identifier string
    - ``degree`` -- field degree D >= 1
    - ``embeddings`` -- one reduced period ratio per complex embedding
    - ``log_norm_minimal_discriminant`` -- log |N(minimal discriminant)|,
      finite and nonnegative; semi-stability of the underlying curve is the
      caller's responsibility
    - ``j_rational`` -- optional (numerator, denominator) pair
    """

    __slots__ = ()

    def __new__(cls, label: str, degree: int, embeddings: Sequence[SiegelTau],
                log_norm_minimal_discriminant: float, j_rational: Optional[tuple] = None) -> CurveRecord:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        embs = tuple(embeddings)
        if len(embs) != degree:
            raise ValueError(f"need {degree} embeddings, got {len(embs)}")
        for e in embs:
            if not isinstance(e, SiegelTau):
                raise TypeError("embeddings must be SiegelTau instances")
        if not 0.0 <= log_norm_minimal_discriminant < math.inf:
            raise ValueError("log |N(min disc)| must be finite and >= 0")
        if j_rational is not None:
            num, den = j_rational
            if den == 0:
                raise ValueError("j denominator is zero")
            j_rational = (int(num), int(den))
        cls._validate_conjugate_pairs(label, embs)
        return super().__new__(cls, label, degree, embs, log_norm_minimal_discriminant, j_rational)

    # namedtuple's _make, which _replace calls, skips __new__ and so these checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @staticmethod
    def _validate_conjugate_pairs(label: str, embs: Sequence[SiegelTau]) -> None:
        # loose: every off-axis tau wants a partner at the mirrored abscissa,
        # to within 1e-6; an unpaired one only warns because all downstream
        # quantities depend on |re| alone
        tol = 1e-6
        unmatched = [t for t in embs if abs(t.re) > tol and abs(abs(t.re) - 0.5) > tol]
        while unmatched:
            t = unmatched.pop()
            for k, u in enumerate(unmatched):
                if abs(u.im - t.im) <= tol and abs(u.re + t.re) <= tol:
                    del unmatched[k]
                    break
            else:
                warnings.warn(  # level 3 is the line that built the record
                    f"record {label!r}: embedding at re={t.re} has no conjugate partner", stacklevel=3
                )


def weil_height_rational_j(j: tuple[int, int]) -> float:
    """log max(|num|, |den|) of the rational number num/den, j = (num, den), in lowest terms."""
    num, den = j
    if den == 0:
        raise ZeroDivisionError(f"j = {num}/0")
    m = max(abs(num), abs(den)) // math.gcd(num, den)
    return math.log(m) if m > 1 else 0.0


def faltings_height_silverman(record: CurveRecord) -> float:
    """Stable height h_F from the minimal-discriminant norm and period ratios.

    h_F = (1/(12 D)) [ log|N(min disc)| - sum over embeddings of
    log(|Delta(tau)| Im(tau)^6) ], with Delta carrying the (2 pi)^12 factor
    so the result lands in the original normalization: 12 D log 2 pi is added
    once to the sum of log|Delta| + 6 log Im(tau), which never underflows.
    Raises ``OverflowError`` when the value is not finite: 2 pi Im(tau)
    overflows inside log Delta from about Im(tau) = 2.86e307 on.
    """
    total = 0.0
    for t in record.embeddings:
        total += delta_on_upper_half_plane(t.value).value.real + 6.0 * math.log(t.im)
    total += 12.0 * record.degree * math.log(2.0 * math.pi)
    value = (record.log_norm_minimal_discriminant - total) / (12.0 * record.degree)
    if not math.isfinite(value):
        raise OverflowError(f"record {record.label!r}: stable height is not finite")
    return value


# ---------------------------------------------------------------------------
# Inequality reports
# ---------------------------------------------------------------------------

def isogeny_height_report(h_source: float, deg: float, h_target: Optional[float] = None) -> BoundReport:
    """h(target) <= h(source) + (1/2) log deg; lhs defaults to h(source)."""
    if deg < 1:
        raise ValueError("isogeny degree must be >= 1")
    lhs = h_source if h_target is None else h_target
    return BoundReport(
        "isogeny_height_shift",
        lhs,
        h_source + 0.5 * math.log(deg),
        inputs={"h_source": h_source, "deg": deg},
    )


def subvariety_height_report(h_ambient: float, g: int, h0: float) -> BoundReport:
    """h(sub) <= h(ambient) + g log(sqrt(2 pi) h0^2), with h(sub) = h(ambient)."""
    if h0 < 1:
        raise ValueError("h0 must be >= 1")
    return BoundReport(
        "subvariety_height",
        h_ambient,
        h_ambient + g * math.log(math.sqrt(2.0 * math.pi) * h0**2),
        inputs={"h_ambient": h_ambient, "g": g, "h0": h0},
    )


def product_additivity_report(h1: float, h2: float, h_product: float) -> BoundReport:
    """Equality h(A1 x A2) = h(A1) + h(A2), to within 1e-9."""
    return BoundReport(
        "product_additivity",
        abs(h_product - h1 - h2),
        1e-9,
        inputs={"h1": h1, "h2": h2, "h_product": h_product},
    )


def hetj_report(record: CurveRecord, h_F: float) -> BoundReport:
    """End-to-end check h(E) <= (1/12) h(j) + 2.95 for a record with rational j.

    ``h_F`` is the record's ``faltings_height_silverman``.
    """
    if record.j_rational is None:
        raise ValueError(f"record {record.label!r} has no rational j")
    hj = weil_height_rational_j(record.j_rational)
    return BoundReport(
        "height_vs_j_height",
        h_F + H_SHIFT,
        hj / 12.0 + 2.95,
        inputs={"label": record.label, "h_faltings": h_F, "h_j": hj},
    )
