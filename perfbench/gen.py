"""Seeded curve-file generator for the benchmark workloads.

Writes newline-delimited JSON records in the ``{"tau_re", "tau_im"}``
embedding form that ``periodkit.cli`` ingests. The properties the workloads
rely on:

- Im tau is log-uniform on [sqrt(3)/2, 8], which moves the theta box between
  6 and 4 and |q| across the q-series range;
- degrees are 1, 2 or 4; off-axis embeddings come in conjugate pairs;
- about 10 % of embeddings are written outside the fundamental domain (by a
  random SL2(Z) map), so ingestion has to reduce them;
- about 1 % of lines are malformed, so ingestion has to skip them.

The same seed and count give byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

Y_MIN = math.sqrt(3.0) / 2.0
Y_MAX = 8.0
DEGREES = (1, 1, 1, 1, 1, 1, 2, 2, 2, 4)  # mean degree 1.6
P_OUTSIDE = 0.125
P_MALFORMED = 0.01
_INTERIOR = 1e-6


@dataclass
class Batch:
    """What a generated file holds, as the generator wrote it."""

    labels: list = field(default_factory=list)  # valid records, in file order
    taus: list = field(default_factory=list)  # per valid record: reduced (re, im) pairs
    log_discs: list = field(default_factory=list)
    js: list = field(default_factory=list)  # (num, den) or None
    reduced: int = 0  # embeddings written outside the fundamental domain
    malformed: int = 0


def _reduced_tau(rng: random.Random) -> tuple[float, float]:
    im = math.exp(rng.uniform(math.log(Y_MIN), math.log(Y_MAX)))
    lo = math.sqrt(max(0.0, 1.0 - im * im))  # |tau| >= 1 below Im tau = 1
    re = rng.uniform(min(lo, 0.5), 0.5) * rng.choice((-1.0, 1.0))
    return re, im


def _on_axis_tau(rng: random.Random) -> tuple[float, float]:
    im = math.exp(rng.uniform(math.log(Y_MIN), math.log(Y_MAX)))
    re = 0.5 if im < 1.0 else rng.choice((0.0, 0.5))
    return re, im


def _interior(re: float, im: float) -> bool:
    return abs(re) < 0.5 - _INTERIOR and re * re + im * im > 1.0 + _INTERIOR


def _outside(re: float, im: float) -> bool:
    return abs(re) > 0.5 + 1e-6 or im < Y_MIN - 1e-6 or re * re + im * im < 1.0 - 1e-6


def _move_out(rng: random.Random, tau: complex) -> complex:
    """Image of tau under a random SL2(Z) map that leaves the fundamental domain."""
    while True:
        c = rng.randint(1, 4)
        d = rng.choice([k for k in range(-5, 6) if math.gcd(k, c) == 1])
        # a d - b c = 1: a = d^-1 mod c, b = (a d - 1) / c
        a = pow(d, -1, c) if c > 1 else 1
        b = (a * d - 1) // c
        z = (a * tau + b) / (c * tau + d) + rng.randint(-3, 3)
        if _outside(z.real, z.imag):
            return z


def _embeddings(rng: random.Random, degree: int) -> list[tuple[float, float]]:
    if degree == 1:
        return [_on_axis_tau(rng)]
    out = []
    for _ in range(degree // 2):
        re, im = _reduced_tau(rng)
        out += [(re, im), (-re, im)]
    return out


def _j_pair(rng: random.Random) -> tuple[int, int]:
    k = rng.randint(1, 12)
    return rng.randint(-(10**k), 10**k), rng.randint(1, 10**k)


def generate(path: str, count: int, seed: int) -> Batch:
    """Write ``count`` lines to ``path``; about 1 % of them malformed."""
    rng = random.Random(seed)
    batch = Batch()
    lines = []
    for i in range(count):
        label = f"s{seed}-{i:06d}"
        degree = rng.choice(DEGREES)
        taus = _embeddings(rng, degree)
        log_disc = rng.uniform(0.0, 30.0) * degree
        j = _j_pair(rng) if rng.random() < 0.5 else None
        if rng.random() < P_MALFORMED:
            lines.append(_malformed(rng, label, degree, taus, log_disc))
            batch.malformed += 1
            continue
        written, moved = [], 0
        for re, im in taus:
            if _interior(re, im) and rng.random() < P_OUTSIDE:
                z = _move_out(rng, complex(re, im))
                written.append({"tau_re": z.real, "tau_im": z.imag})
                moved += 1
            else:
                written.append({"tau_re": re, "tau_im": im})
        obj = {"label": label, "degree": degree, "embeddings": written,
               "log_norm_minimal_discriminant": log_disc}
        if j is not None:
            obj["j_num"], obj["j_den"] = str(j[0]), str(j[1])
        lines.append(json.dumps(obj))
        batch.labels.append(label)
        batch.taus.append(taus)
        batch.log_discs.append(log_disc)
        batch.js.append(j)
        batch.reduced += moved
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return batch


def _malformed(rng: random.Random, label: str, degree: int, taus, log_disc: float) -> str:
    """One invalid line of a kind ingestion must skip without reducing anything."""
    embs = [{"tau_re": re, "tau_im": im} for re, im in taus]
    obj = {"label": label, "degree": degree, "embeddings": embs,
           "log_norm_minimal_discriminant": log_disc}
    kind = rng.randrange(3)
    if kind == 0:
        text = json.dumps(obj)
        return text[: len(text) // 2]  # truncated JSON
    if kind == 1:
        obj["degree"] = degree + 1  # embedding count disagrees with the degree
    else:
        del obj["log_norm_minimal_discriminant"]
    return json.dumps(obj)
