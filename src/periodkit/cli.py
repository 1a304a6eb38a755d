"""Command-line front end: ingestion, verification suites, reporting.

Exit codes: 0 all checks satisfied, 1 at least one inequality violated,
2 input or usage error.

The canonical JSON report is the manifest written by the standard ``json``
encoder with sorted keys and floats in their shortest round-trip form
(``repr``): the top level with a 2-space indent, and each report on one line
of its own, indented by 4 spaces. ``wall_time`` is written as null, so
repeated runs give identical bytes. Both outputs are written a line at a
time. A non-finite float raises ``ValueError`` before a report file is
opened, so the path is left as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import warnings
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from . import __version__
from . import bounds as bnd
from . import interpolation as itp
from . import isogeny as iso
from . import modular, serre, theta
from .bounds import BoundReport
from .heights import (
    H_SHIFT,
    CurveRecord,
    faltings_height_silverman,
    hetj_report,
    isogeny_height_report,
    product_additivity_report,
    subvariety_height_report,
    weil_height_rational_j,
)
from .lattice import (
    SiegelTau,
    UnimodularMap,
    avoidance_minimum,
    rho_inverse_squared,
    shortest_vector,
    siegel_reduce,
    smith_index,
)

if TYPE_CHECKING:
    import random


# ---------------------------------------------------------------------------
# Manifest and reporting
# ---------------------------------------------------------------------------

class RunManifest(NamedTuple):
    suites: list
    reports: list  # (suite name, BoundReport, satisfied) rows, each verdict computed once
    tolerances: dict
    wall_time: Optional[float]
    tool_version: str = __version__
    input_digests: Optional[dict] = None  # None reads as {}

    @property
    def all_satisfied(self) -> bool:
        return all(ok for _, _, ok in self.reports)

    def to_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "reports": [_report_dict(*row) for row in self.reports],
            "tolerances": dict(self.tolerances),
            # nulled for byte-identical reports across runs; kept on the object
            "wall_time": None,
            "tool_version": self.tool_version,
            "input_digests": dict(self.input_digests or {}),
        }


def _report_dict(suite: str, report: BoundReport, satisfied: bool) -> dict:
    """A report in the canonical JSON layout, with its suite and the stored verdict.

    The one definition of the layout: ``RunManifest.to_dict`` and the JSON
    emitter both build their report dicts here.
    """
    return {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "satisfied": satisfied,
        "inputs": dict(report.inputs or {}),
        "suite": suite,
    }


def _json_lines(manifest: RunManifest) -> Iterator[str]:
    """The canonical JSON a report at a time.

    The C encoder runs only without an indent: each report is one line of it,
    spliced into the indented top level, which is rendered from the manifest
    with its reports left out. Every non-finite float raises ``ValueError``
    before the first line is yielded: the top level's while it renders, a
    report's in a scan of its margin (finite only if ``lhs`` and ``rhs`` are
    and their difference does not overflow) and of its ``inputs``, which hold
    no nested values.
    """
    doc = manifest._replace(reports=[]).to_dict()
    top = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    bad = "Out of range float values are not JSON compliant: {!r} in {!r}"
    for _, report, _ in manifest.reports:
        if not math.isfinite(report.margin):
            raise ValueError(bad.format(report.margin, report.name))
        for x in (report.inputs or {}).values():
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(bad.format(x, report.name))
    if not manifest.reports:
        yield top
        return
    head, tail = top.split('\n  "reports": []', 1)
    yield head + '\n  "reports": [\n'
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    sep = "    "
    for row in manifest.reports:
        yield sep + encode(_report_dict(*row))
        sep = ",\n    "
    yield "\n  ]" + tail


def _text_lines(manifest: RunManifest) -> Iterator[str]:
    """The table a line at a time, after one pass over the names for the column width."""
    yield f"suites: {', '.join(manifest.suites)}  (tool {manifest.tool_version})\n"
    name_w = max((len(r.name) for _, r, _ in manifest.reports), default=4)
    yield f"{'check':<{name_w}}  {'lhs':>13} {'rhs':>13} {'margin':>13}  verdict\n"
    n_bad = 0
    for _, r, ok in manifest.reports:
        n_bad += not ok
        verdict = "PASS" if ok else "FAIL"
        yield f"{r.name:<{name_w}}  {r.lhs:>13.6g} {r.rhs:>13.6g} {r.margin:>13.3g}  {verdict}\n"
    wt = f"{manifest.wall_time:.2f}s" if manifest.wall_time is not None else "n/a"
    yield f"{len(manifest.reports)} checks, {n_bad} failed, wall time {wt}\n"


def emit_report(manifest: RunManifest, format: str = "text", path: Optional[str] = None) -> None:
    """Write the manifest as a human table or canonical JSON, one line at a time."""
    render = {"json": _json_lines, "text": _text_lines}.get(format)
    if render is None:
        raise ValueError(f"unknown format {format!r}")
    lines = render(manifest)
    if path is None:
        sys.stdout.writelines(lines)
        return
    first = next(lines)  # the JSON scan for non-finite floats runs here, before "w" truncates the path
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first)
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def default_fixture_path() -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures", "curves.jsonl")


def _number(key: str, value) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if type(value) in (int, float):
        return float(value)
    raise ValueError(f"{key} = {value!r} is not a number")


def _embedding_pair(emb) -> tuple[float, float]:
    """(re, im) from either documented form: {"tau_re": re, "tau_im": im} or [re, im]."""
    if isinstance(emb, dict):
        emb = [emb["tau_re"], emb["tau_im"]]
    elif not (isinstance(emb, list) and len(emb) == 2):
        raise ValueError(f"embedding {emb!r} is neither {{tau_re, tau_im}} nor [re, im]")
    return _number("tau_re", emb[0]), _number("tau_im", emb[1])


_DIGITS = re.compile(r"-?[0-9]+")


def _integer(key: str, value, digits: bool = False) -> int:
    """A JSON integer (not a bool), or with ``digits`` also a string of decimal digits."""
    if type(value) is int:
        return value
    if digits and isinstance(value, str) and _DIGITS.fullmatch(value):
        return int(value)
    kind = "an integer or a string of decimal digits" if digits else "an integer"
    raise ValueError(f"{key} = {value!r} is not {kind}")


def _record_from_obj(obj: dict) -> CurveRecord:
    embeddings = []
    for emb in obj["embeddings"]:
        re, im = _embedding_pair(emb)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"embedding ({re}, {im}) is not finite")
        try:
            embeddings.append(SiegelTau(re, im))
        except ValueError:
            reduced, _ = siegel_reduce(complex(re, im))
            warnings.warn(
                f"record {obj.get('label', '?')!r}: embedding ({re}, {im}) reduced to "
                f"({reduced.re}, {reduced.im})",
                stacklevel=3,
            )
            embeddings.append(reduced)
    j = None
    if "j_num" in obj or "j_den" in obj:
        j = (_integer("j_num", obj["j_num"], True), _integer("j_den", obj.get("j_den", 1), True))
    return CurveRecord(
        label=str(obj["label"]),
        degree=_integer("degree", obj["degree"]),
        embeddings=tuple(embeddings),
        log_norm_minimal_discriminant=_number(
            "log_norm_minimal_discriminant", obj["log_norm_minimal_discriminant"]
        ),
        j_rational=j,
    )


def _sha256():
    """A new SHA-256 object, from the builtin module when there is one.

    hashlib loads OpenSSL's libcrypto; like the standard library's ``random``,
    try the lean ``_sha2`` (Python 3.12 on) or ``_sha256`` (3.10, 3.11) first.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a build without the builtin hashes
            from hashlib import sha256
    return sha256()


def _iter_records(path: str, sha=None) -> Iterator[CurveRecord]:
    r"""Parse newline-delimited JSON records one at a time; skip invalid lines with a warning.

    Given ``sha``, each line goes into it as it is read, so a pipe is hashed
    too, and the digest is that of the bytes read: ``newline=""`` splits at
    ``\n``, ``\r`` and ``\r\n`` as universal newlines do but keeps the endings
    as they are, and strict UTF-8 encodes each decoded line back to its bytes.
    An undecodable byte raises before the digest is used.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if sha is not None:
                sha.update(line.encode("utf-8"))
            line = line.strip()
            if not line:
                continue
            try:
                record = _record_from_obj(json.loads(line))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                warnings.warn(f"{path}:{lineno}: skipped invalid record: {exc}", stacklevel=2)
                continue
            yield record


def ingest_curves(path: str, sha=None) -> list[CurveRecord]:
    """Parse newline-delimited JSON records; skip invalid lines with a warning."""
    return list(_iter_records(path, sha))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _random_reduced_tau(rng: random.Random) -> SiegelTau:
    while True:
        re = rng.uniform(-0.5, 0.5)
        im = rng.uniform(math.sqrt(3.0) / 2.0, 2.5)
        if re * re + im * im >= 1.0 + 1e-6:
            return SiegelTau(re, im)


def _random_unimodular(rng: random.Random) -> UnimodularMap:
    """(a b; c d) of determinant 1 for a coprime pair a, c drawn from [-10, 10]."""
    while True:
        a, c = rng.randint(-10, 10), rng.randint(-10, 10)
        if math.gcd(a, c) == 1:
            break
    # d = a^-1 mod |c| (extended Euclid) makes a d - 1 a multiple of c; for c = 0, a = +-1 = a^-1
    d = pow(a, -1, abs(c)) if c else a
    return UnimodularMap(a, (a * d - 1) // c if c else 0, c, d)


def _equality_report(name: str, value: float, expected: float, tol: float, **inputs) -> BoundReport:
    return BoundReport(name, abs(value - expected), tol, inputs={"value": value, "expected": expected, **inputs})


def _suite_lattice(records, seed: int, quad: int) -> list[BoundReport]:
    import random

    rng = random.Random(seed)
    reports: list[BoundReport] = []
    worst = 0.0
    for _ in range(200):
        t = _random_reduced_tau(rng)
        back, _ = siegel_reduce(_random_unimodular(rng).apply(t.value))
        worst = max(worst, abs(back.value - t.value))
    reports.append(BoundReport("siegel_round_trip_200", worst, 1e-10, inputs={"seed": seed}))
    worst = 0.0
    for _ in range(10):
        t = _random_reduced_tau(rng)
        delta = avoidance_minimum(t.value, [1.0, 1.0])
        rho = math.sqrt(1.0 / rho_inverse_squared(t))
        worst = max(worst, abs(delta - rho / math.sqrt(2.0)))
    reports.append(BoundReport("diagonal_avoidance_identity_10", worst, 1e-10, inputs={"seed": seed}))
    # Z + 2iZ under |z|^2 / Im tau: the periods 1 and 2i scaled by sqrt(1/2)
    _, norm = shortest_vector(math.sqrt(0.5), math.sqrt(0.5) * 2j)
    reports.append(_equality_report("shortest_vector_tau_2i", norm * norm, 0.5, 1e-12))
    idx, cyc = smith_index([[2, 0], [0, 2]])
    reports.append(_equality_report("smith_diag22_index", float(idx), 4.0, 0.0, cyclic=cyc))
    return reports


def _suite_modular(records, seed: int, quad: int) -> list[BoundReport]:
    reports: list[BoundReport] = []
    ji = modular.j_invariant(SiegelTau(0.0, 1.0))
    reports.append(_equality_report("j_at_i", ji.value.real, 1728.0, 1e-9, imag=abs(ji.value.imag)))
    jc = modular.j_invariant(SiegelTau(0.5, math.sqrt(3.0) / 2.0))
    reports.append(_equality_report("j_at_corner", abs(jc.value), 0.0, 1e-9))
    for rec in records:
        for k, t in enumerate(rec.embeddings):
            r1, r2 = modular.check_classical_bounds(t)
            reports.append(r1._replace(name=f"j_lower[{rec.label}:{k}]"))
            reports.append(r2._replace(name=f"delta_lower[{rec.label}:{k}]"))
    reports.append(modular.silverman_f_extrema())
    return reports


def _suite_theta(records, seed: int, quad: int) -> list[BoundReport]:
    reports: list[BoundReport] = []
    for label, mat in (
        ("i", [[1j]]),
        ("2i", [[2j]]),
        ("half_plus_sqrt3", [[0.5 + 1j * math.sqrt(3.0)]]),
    ):
        val = theta.torus_l2_norm(theta.RiemannTau(1, mat), quad)
        reports.append(_equality_report(f"l2_norm_g1[{label}]", val, 1.0, 1e-6))
    val = theta.torus_l2_norm(theta.RiemannTau(2, [[1j, 0.0], [0.0, 2j]]), max(16, quad // 4))
    reports.append(_equality_report("l2_norm_g2_diag", val, 1.0, 1e-5))
    for rec in records:
        reports.append(theta.bost_inequality_check(rec))
    return reports


def _suite_heights(records, seed: int, quad: int) -> list[BoundReport]:
    reports: list[BoundReport] = []
    floor = -0.5 * math.log(2.0 * math.pi)
    for rec in records:
        hF = faltings_height_silverman(rec)
        reports.append(
            BoundReport(
                f"height_floor[{rec.label}]", floor, hF + H_SHIFT, inputs={"label": rec.label}, tol=1e-9
            )
        )
        if rec.j_rational is not None:
            reports.append(hetj_report(rec, hF))
    reports += [
        isogeny_height_report(1.0, 1.0),
        isogeny_height_report(0.5, 4.0, 1.0),
        subvariety_height_report(0.0, 1, 1.0),
        product_additivity_report(0.25, -0.5, -0.25),
        bnd.orthogonal_split_degree_report(2.0, 3.0, 2.0),
    ]
    return reports


def _suite_bounds(records, seed: int, quad: int) -> list[BoundReport]:
    reports = bnd.structural_constants(500)
    _, _, checks = bnd.prop_ell_solver(1.0)
    reports += checks
    for rec in records:
        hF = faltings_height_silverman(rec)
        h = hF + H_SHIFT
        rec_rhos = [1.0 / math.sqrt(t.im) for t in rec.embeddings]
        reports.append(bnd.autissier_report(rec_rhos, h, 1))
        T = sum(t.im for t in rec.embeddings) / rec.degree
        reports.append(bnd.matrix_lemma_report(T, h, 1.0, 1, "eleven"))
        reports.append(bnd.matrix_lemma_report(T, hF, 1.0, 1, "fourteen"))
        t_gen, t_large = bnd.prop_ell_caps(h)
        reports.append(BoundReport(f"ell_general[{rec.label}]", T, t_gen, inputs={"h": h}))
        reports.append(BoundReport(f"ell_large[{rec.label}]", T, t_large, inputs={"h": h}))
    return reports


def _suite_interpolation(records, seed: int, quad: int) -> list[BoundReport]:
    reports = itp.lemma52_checks(8, seed=seed)
    reports += itp.u_sequence(1000)
    for d in (0, 3, 10):
        for S in (2, 3, 4):
            for T in (1, 2, 3):
                reports += itp.schwarz_lemma_check(itp.AnalyticTestFunction.monomial(d), S, T)
    f = itp.AnalyticTestFunction.polynomial([1.0, 2.0, 0.0, 1.0])
    reports.append(itp.hermite_identity_check(f, 3, 2, 0.37 + 0.21j))
    return reports


def _suite_isogeny(records, seed: int, quad: int) -> list[BoundReport]:
    reports = iso.chain_checkpoints()
    reports += iso.surface_bound_constants()
    general = iso.explicit_bound(1, 900.0)
    reports.append(_equality_report("general_closed_form", general.bound, 9.70225e12, 1e-3))
    real = iso.explicit_bound(1, 1.0, "real")
    reports.append(_equality_report("real_closed_form", real.bound, iso.REAL_CONSTANT, 1e-9))
    for D in (1, 2, 5):
        for hF in (0.0, 10.0, 985.0):
            H = max(hF + H_SHIFT, iso.H_FLOOR)
            delta = iso.implicit_delta_solver(2.0 * D, H)
            cap = iso.explicit_bound(D, hF).bound
            reports.append(
                BoundReport(
                    f"implicit_vs_explicit[D={D},hF={hF:g}]",
                    delta,
                    cap,
                    inputs={"D": D, "h_F": hF, "H": H},
                )
            )
    for rec in records:
        for t in rec.embeddings:
            reports.append(iso.period_norm_identity(t))
    return reports


def _suite_serre(records, seed: int, quad: int) -> list[BoundReport]:
    th = serre.find_threshold()
    return [
        _equality_report("threshold_integer", float(th.p_star), 3094027.0, 0.0),
        BoundReport("f_above_one_at_threshold", 1.0, th.f_at_p_star, inputs={"p": th.p_star}),
        BoundReport("f_below_one_after", th.f_at_p_star_plus_1, 1.0, inputs={"p": th.p_star + 1}),
    ]


# Suite name -> check function, in the order "all" runs them.
SUITES = {
    "lattice": _suite_lattice,
    "modular": _suite_modular,
    "theta": _suite_theta,
    "heights": _suite_heights,
    "bounds": _suite_bounds,
    "interpolation": _suite_interpolation,
    "isogeny": _suite_isogeny,
    "serre": _suite_serre,
}


def run_suite(
    suite: str,
    records: Sequence[CurveRecord],
    seed: int = 0,
    quad_points: int = 64,
    input_digests: Optional[dict] = None,
) -> RunManifest:
    """Execute one named suite (or all) and collect a manifest."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    t0 = time.perf_counter()
    names = list(SUITES) if suite == "all" else [suite]
    reports = [(name, rep, rep.satisfied) for name in names for rep in SUITES[name](records, seed, quad_points)]
    return RunManifest(
        suites=names,
        reports=reports,
        tolerances={"quad_points": quad_points, "seed": seed},
        wall_time=time.perf_counter() - t0,
        input_digests=dict(input_digests or {}),
    )


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptk", description="period and isogeny bound toolkit")
    p.add_argument("--quad-points", type=int, default=64, help="quadrature points per axis of the L2 norm")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="reduce a period ratio to the fundamental domain")
    pr.add_argument("re", type=float)
    pr.add_argument("im", type=float)

    pr = sub.add_parser("rho", help="inverse squared lattice minimum of a reduced ratio")
    pr.add_argument("re", type=float)
    pr.add_argument("im", type=float)

    pr = sub.add_parser("delta", help="diagonal avoidance minimum for the squared curve")
    pr.add_argument("re", type=float)
    pr.add_argument("im", type=float)

    pt = sub.add_parser("theta", help="theta-related checks")
    tsub = pt.add_subparsers(dest="theta_command", required=True)
    tc = tsub.add_parser("check", help="torus integrals for one tau")
    tc.add_argument("--tau-re", type=float, default=0.0)
    tc.add_argument("--tau-im", type=float, default=1.0)

    ph = sub.add_parser("height", help="stable heights of ingested curves")
    ph.add_argument("--curves", default=default_fixture_path(), help="JSONL file (default: bundled fixtures)")

    pb = sub.add_parser("bound", help="bound calculators")
    bsub = pb.add_subparsers(dest="bound_command", required=True)
    bi = bsub.add_parser("isogeny", help="explicit isogeny degree bounds")
    bi.add_argument("--case", choices=iso.CASES, default="general")
    bi.add_argument("--degree", type=int, default=1)
    bi.add_argument("--h-f", type=float, default=1.0, dest="h_f")

    ps = sub.add_parser("serre", help="prime threshold computation")
    ssub = ps.add_subparsers(dest="serre_command", required=True)
    ssub.add_parser("threshold", help="locate the exact integer threshold")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=("all", *SUITES), default="all")
    pv.add_argument("--json", default=None, help="also write canonical JSON report here")
    pv.add_argument("--curves", default=default_fixture_path())
    return p


def _load_records(path: str) -> tuple[list[CurveRecord], dict]:
    sha = _sha256()
    records = ingest_curves(path, sha)
    if not records:
        raise ValueError(f"no valid records in {path}")
    return records, {os.path.basename(path): sha.hexdigest()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, not {args.seed}")
    if args.quad_points < 16:
        parser.error(f"argument --quad-points: must be >= 16, not {args.quad_points}")
    try:
        if args.command == "reduce":
            t, m = siegel_reduce(complex(args.re, args.im))
            print(f"tau = {t.re:.17g} + {t.im:.17g}i")
            print(f"map = ({m.a}, {m.b}; {m.c}, {m.d})")
            return 0
        if args.command == "rho":
            t, _ = siegel_reduce(complex(args.re, args.im))
            print(f"rho^-2 = {rho_inverse_squared(t):.17g}")
            return 0
        if args.command == "delta":
            t, _ = siegel_reduce(complex(args.re, args.im))
            d = avoidance_minimum(t.value, [1.0, 1.0])
            rho = math.sqrt(1.0 / rho_inverse_squared(t))
            print(f"delta = {d:.17g}")
            print(f"rho/sqrt(2) = {rho / math.sqrt(2.0):.17g}")
            return 0
        if args.command == "theta":
            # both integrals depend only on the torus, so tau is reduced first
            t, _ = siegel_reduce(complex(args.tau_re, args.tau_im))
            rt = theta.RiemannTau(1, [[t.value]])
            l2 = theta.torus_l2_norm(rt, args.quad_points)
            li = theta.torus_log_integral(rt)
            # the even midpoint grid gives 1 + 2 sum_k (-1)^k e^{-pi k^2 m^2 / (2 Im tau)}
            m = theta._resolution(args.quad_points)
            alias = 2.0 * math.exp(-math.pi * m * m / (2.0 * t.im))
            print(f"l2 integral  = {l2:.12g} (expect 1; aliasing "
                  f"2 e^(-pi m^2 / 2 Im tau) = {alias:.3g} at m = {m})")
            print(f"log integral = {li:.12g} (expect <= 0)")
            return 0 if abs(l2 - 1.0) < 1e-5 and li <= 1e-9 else 1
        if args.command == "height":
            # one record at a time, so memory does not grow with the file
            path, count = args.curves, 0
            for count, rec in enumerate(_iter_records(path), start=1):
                hF = faltings_height_silverman(rec)
                hj = weil_height_rational_j(rec.j_rational) if rec.j_rational else float("nan")
                print(f"{rec.label}: h_F = {hF:.12g}, h = {hF + H_SHIFT:.12g}, h(j) = {hj:.12g}")
            if not count:
                raise ValueError(f"no valid records in {path}")
            return 0
        if args.command == "bound":
            out = iso.explicit_bound(args.degree, args.h_f, args.case)
            print(f"bound = {out.bound:.17g}")
            if out.simplified is not None:
                print(f"simplified = {out.simplified:.17g}")
            return 0
        if args.command == "serre":
            th = serre.find_threshold()
            print(f"p_star = {th.p_star}")
            print(f"f(p_star)     = {th.f_at_p_star:.17g}")
            print(f"f(p_star + 1) = {th.f_at_p_star_plus_1:.17g}")
            return 0
        if args.command == "verify":
            records, digests = _load_records(args.curves)
            manifest = run_suite(args.suite, records, args.seed, args.quad_points, digests)
            emit_report(manifest, "text")
            if args.json:
                emit_report(manifest, "json", args.json)
            return 0 if manifest.all_satisfied else 1
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
