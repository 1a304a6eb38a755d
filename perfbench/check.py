"""Output checks for the benchmark workloads.

An invocation is checked against a reference made for its workload and seed:

- ``ptk verify``: the report names, order, verdicts and margin signs of the
  ``reports`` list. Only that list is compared, because ``input_digests`` is
  keyed by absolute path and differs between checkouts. Fixed-input
  workloads compare against the reference committed under ``refs/``;
  generated-input workloads check the ingested labels and the height-based
  verdicts against an independent oracle and keep the first correct output
  as the reference for the rest of the run.
- ``ptk height``: the labels, and h_F, h and h(j) to 1e-9 relative, against
  the oracle.

Every repeat must also give byte-identical output to the first correct one.

Run ``python3 perfbench/check.py`` to rewrite the committed references from
the program in ``src/``.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REL_TOL = 1e-9
_KEY_LINE = re.compile(r'\n  "[^"]+": ')


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------

def classify(returncode: Optional[int], timed_out: bool, expected_rc: int,
             mismatch: Optional[str]) -> Optional[str]:
    """Why an invocation failed, or None when it succeeded.

    Exit 2 (input or usage error) always fails; exit 1 (a violated
    inequality) is fine when the reference expects it.
    """
    if timed_out:
        return "timed out"
    if returncode == 2:
        return "exit 2"
    if returncode != expected_rc:
        return f"exit {returncode}, expected {expected_rc}"
    return mismatch


# ---------------------------------------------------------------------------
# Independent height oracle
# ---------------------------------------------------------------------------

def _log_delta_im6(re_: float, im: float) -> float:
    """log(|Delta(tau)| Im(tau)^6) with Delta = (2 pi)^12 eta^24.

    Uses Euler's pentagonal series for eta, not the product the program
    uses; the quantity is SL2(Z)-invariant, so any representative works.
    """
    q = cmath.exp(2j * math.pi * complex(re_, im))
    s = sum((-1) ** (n % 2) * q ** (n * (3 * n - 1) // 2) for n in range(-12, 13))
    return 12.0 * math.log(2.0 * math.pi) - 2.0 * math.pi * im + 24.0 * math.log(abs(s)) + 6.0 * math.log(im)


def height_oracle(batch) -> list[tuple[str, float, float, float]]:
    """(label, h_F, h, h(j)) per valid generated record, in file order."""
    rows = []
    half_log_pi = 0.5 * math.log(math.pi)
    for label, taus, log_disc, j in zip(batch.labels, batch.taus, batch.log_discs, batch.js):
        hf = (log_disc - sum(_log_delta_im6(*t) for t in taus)) / (12.0 * len(taus))
        hj = float("nan")
        if j is not None:
            frac = Fraction(*j)
            m = max(abs(frac.numerator), frac.denominator)
            hj = math.log(m) if m > 1 else 0.0
        rows.append((label, hf, hf + half_log_pi, hj))
    return rows


def _close(a: float, b: float) -> bool:
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def parse_height(text: str) -> list[tuple[str, float, float, float]]:
    rows = []
    for line in text.splitlines():
        label, rest = line.rsplit(": h_F = ", 1)
        hf, h, hj = (float(part.split(" = ")[-1]) for part in rest.split(", "))
        rows.append((label, hf, h, hj))
    return rows


def height_mismatch(text: str, oracle) -> Optional[str]:
    try:
        rows = parse_height(text)
    except ValueError as exc:
        return f"unparsable height output: {exc}"
    if [r[0] for r in rows] != [o[0] for o in oracle]:
        return f"ingested {len(rows)} records, generated {len(oracle)} valid"
    for row, ref in zip(rows, oracle):
        if not all(_close(a, b) for a, b in zip(row[1:], ref[1:])):
            return f"{row[0]}: {row[1:]} != oracle {ref[1:]}"
    return None


# ---------------------------------------------------------------------------
# Verify reports
# ---------------------------------------------------------------------------

def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def summarize(reports: list) -> list:
    """What the reference fixes about a report list: suite, name, verdict, margin sign."""
    return [[r["suite"], r["name"], r["satisfied"], _sign(r["margin"])] for r in reports]


def reports_bytes(text: str) -> bytes:
    """The ``reports`` member of a canonical JSON report, as written."""
    start = text.index('\n  "reports": ')
    nxt = _KEY_LINE.search(text, start + 1)
    return text[start: nxt.start() if nxt else len(text)].encode()


def expected_rc(summary: list) -> int:
    return 0 if all(row[2] for row in summary) else 1


def oracle_mismatch(reports: list, batch) -> Optional[str]:
    """Ingested labels and height-based verdicts against the oracle."""
    floors = [r for r in reports if r["name"].startswith("height_floor[")]
    labels = [r["name"][len("height_floor["):-1] for r in floors]
    if labels != batch.labels:
        return f"ingested {len(labels)} records, generated {len(batch.labels)} valid"
    rows = {row[0]: row for row in height_oracle(batch)}
    floor = -0.5 * math.log(2.0 * math.pi)
    for r in floors:
        h = rows[r["name"][len("height_floor["):-1]][2]
        if abs(h - floor) > 1e-6 and r["satisfied"] != (floor <= h):
            return f"{r['name']}: verdict {r['satisfied']} disagrees with the oracle"
    for r in reports:
        if r["name"] == "height_vs_j_height":
            _, _, h, hj = rows[r["inputs"]["label"]]
            rhs = hj / 12.0 + 2.95
            if abs(h - rhs) > 1e-6 and r["satisfied"] != (h <= rhs):
                return f"height_vs_j_height[{r['inputs']['label']}]: verdict disagrees with the oracle"
    return None


class Reference:
    """Reference outputs for one workload and seed, and the checks against them.

    ``stored`` is the file that keeps the reference for this workload and
    seed: the oracle rows for ``ptk height``, the report summary for a
    generated ``ptk verify``. A later run with the same seed in the same
    checkout is checked against it.
    """

    def __init__(self, workload: str, kind: str, batch=None, stored: Optional[str] = None):
        self.kind = kind
        self.batch = batch
        self.stored = stored
        self.summary = None
        self.oracle = None
        self.good = None  # output bytes of the first invocation that passed the full check
        saved = None
        if stored and os.path.exists(stored):
            with open(stored, encoding="utf-8") as fh:
                saved = json.load(fh)
        if kind == "height":
            self.oracle = [tuple(row) for row in saved["oracle"]] if saved else height_oracle(batch)
            self._save({"oracle": self.oracle})
        elif batch is None:
            with open(os.path.join(REFS, f"{workload}.json"), encoding="utf-8") as fh:
                self.summary = json.load(fh)
        elif saved:
            self.summary = saved["summary"]

    def _save(self, obj: dict) -> None:
        if self.stored and not os.path.exists(self.stored):
            with open(self.stored, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    @property
    def expected_rc(self) -> int:
        """Exit code the reference implies: 1 exactly when a verdict is violated."""
        if self.kind == "height" or self.summary is None:
            return 0
        return expected_rc(self.summary)

    def check(self, stdout: str, json_path: Optional[str]) -> Optional[str]:
        """Mismatch description for one invocation's output, or None."""
        try:
            if self.kind == "height":
                out = stdout.encode()
            else:
                with open(json_path, encoding="utf-8") as fh:
                    out = reports_bytes(fh.read())
        except (OSError, ValueError) as exc:
            return f"no report: {exc}"
        if self.good is not None:
            return None if out == self.good else "output differs from the first correct run"
        try:
            mismatch = self._full_check(stdout, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            mismatch = f"malformed report: {exc!r}"
        if mismatch is None:
            self.good = out
        return mismatch

    def _full_check(self, stdout: str, out: bytes) -> Optional[str]:
        if self.kind == "height":
            return height_mismatch(stdout, self.oracle)
        reports = json.loads(out.decode().split(":", 1)[1].rstrip().rstrip(","))
        if self.batch is not None:
            mismatch = oracle_mismatch(reports, self.batch)
            if mismatch:
                return mismatch
        summary = summarize(reports)
        if self.summary is None:
            self.summary = summary
            self._save({"summary": summary})
        if summary != self.summary:
            at = next((i for i, (a, b) in enumerate(zip(summary, self.summary)) if a != b),
                      min(len(summary), len(self.summary)))
            return f"reports differ from the reference at index {at}"
        return None


def write_committed(root: str) -> None:
    """Regenerate ``refs/<workload>.json`` for the fixed-input workloads."""
    import contextlib
    import io

    sys.path.insert(0, os.path.join(root, "src"))
    from periodkit import cli

    os.makedirs(REFS, exist_ok=True)
    for name, argv in (
        ("verify-fixtures", ["verify", "--suite", "all"]),
        ("theta-fine", ["--quad-points", "256", "verify", "--suite", "theta"]),
    ):
        out = os.path.join(REFS, f"{name}.tmp")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + ["--json", out])
        with open(out, encoding="utf-8") as fh:
            summary = summarize(json.load(fh)["reports"])
        os.remove(out)
        with open(os.path.join(REFS, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(row) for row in summary) + "\n]\n")


if __name__ == "__main__":
    os.environ.pop("PTK_FIXTURES", None)
    write_committed(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
