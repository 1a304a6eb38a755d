"""Spans around calls into periodkit's public functions, and the layer metrics.

The tracer replaces every binding of each public module-level function, in
every loaded ``periodkit`` module, with a wrapper that records a span: name,
parent span, start, end and the exception it raised, if any. Re-imports such
as ``cli.faltings_height_silverman`` or ``theta.faltings_height_silverman``
are the same function object and get the same wrapper, so cross-module calls
stay inside their spans. Spans are kept in memory and written once, at the
end. The program under test is not modified.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "periodkit"
LAYER_MODULES = ("lattice", "modular", "theta", "heights", "bounds",
                 "interpolation", "isogeny", "serre", "cli")
CLI_LAYERS = {
    "ingest_curves": "cli.ingest",
    "default_fixture_path": "cli.ingest",
    "run_suite": "cli.runner",
    "emit_report": "cli.report",
}
# Per-sample callables: evaluated once per point of a sweep or bisection
# step, so a span each would measure the tracer more than the layer.
PER_SAMPLE = {
    "serre.f_of_p", "serre.H_of_p", "serre.j_log_upper",
    "interpolation.poly_P", "interpolation.log_abs_poly_P", "interpolation.u_value",
    "bounds.c1_of_g", "bounds.c2_of_g", "bounds.quadratic_root_bound",
}
NOT_TRACED = PER_SAMPLE | {"cli.main"}  # main is the command the traced run calls

# span fields
NAME, PARENT, T0, T1, ERROR = range(5)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = []
    for i, s in enumerate(spans):
        covered, end = 0.0, s[T0]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, end), min(b, s[T1])
            if b > a:
                covered += b - a
                end = b
        out.append(s[T1] - s[T0] - covered)
    return out


class Tracer:
    """Installs span wrappers on the periodkit modules and collects the spans."""

    def __init__(self, stdout_tell: Callable[[], int] = lambda: 0):
        self.stdout_tell = stdout_tell  # position in the captured stdout, for report bytes
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._restore: list = []
        self._originals: dict = {}

    # -- installation ------------------------------------------------------

    def traced_functions(self) -> dict:
        """id(function) -> (span name, function) for every public function traced."""
        found = {}
        for mod_name in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for name, obj in vars(mod).items():
                qual = f"{mod_name}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in NOT_TRACED):
                    continue
                layer = CLI_LAYERS[name] if mod_name == "cli" else mod_name
                found[id(obj)] = (f"{layer}.{name}", obj)
        return found

    def install(self) -> None:
        found = self.traced_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in found.items()}
        self._originals = {name: fn for name, fn in found.values()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        post = _POST_HOOKS.get(name)
        pre = self.stdout_tell if name == "cli.report.emit_report" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            state = pre() if pre else None
            span[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = exc
                raise
            finally:
                span[T1] = clock()
                stack.pop()
            if post:
                post(self, args, kwargs, result, state)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: id, parent, name, start, end, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                err = type(s[ERROR]).__name__ if s[ERROR] is not None else ""
                fh.write(f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[T0]:.9f}\t{s[T1]:.9f}\t{err}\n")

    def metrics(self) -> dict:
        """Per-layer and per-function sums: calls, self time, inclusive time."""
        selfs = self_times(self.spans)
        out = defaultdict(float)
        errors = set()
        for s, own in zip(self.spans, selfs):
            name = s[NAME]
            layer = name.rsplit(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += s[T1] - s[T0]
            if layer == "modular" and type(s[ERROR]).__name__ == "InsufficientTruncationError":
                errors.add(id(s[ERROR]))  # one error unwinds through several spans
        out["modular.truncation_errors"] = len(errors)
        out.update(self.counts)
        return dict(out)


# -- counts taken at the span boundaries -----------------------------------

def _theta_box(tracer: Tracer, tau) -> int:
    return tracer._originals["theta.default_truncation"](tau)


def _grid_counts(tracer: Tracer, tau, m: int) -> None:
    """One midpoint grid: m^g p-points by m^g q-points, (2 box + 1)^g terms each."""
    width = (2 * _theta_box(tracer, tau) + 1) ** tau.g
    tracer.counts["theta.terms"] += m ** (2 * tau.g) * width
    tracer.counts["theta.grid_bytes"] = max(tracer.counts["theta.grid_bytes"], width * m ** tau.g * 16)


def _quad_m(args, kwargs) -> int:
    m = int(args[1] if len(args) > 1 else kwargs.get("quadrature_points_per_axis", 64))
    return m + (m % 2)


def _post_l2(tracer, args, kwargs, result, state) -> None:
    _grid_counts(tracer, args[0], _quad_m(args, kwargs))


def _post_log(tracer, args, kwargs, result, state) -> None:
    m = _quad_m(args, kwargs)
    _grid_counts(tracer, args[0], m)
    _grid_counts(tracer, args[0], 2 * m)  # Richardson doubling


def _post_eval_f(tracer, args, kwargs, result, state) -> None:
    tau = args[0]
    box = args[3] if len(args) > 3 else kwargs.get("truncation")
    box = _theta_box(tracer, tau) if box is None else int(box)
    tracer.counts["theta.terms"] += (2 * box + 1) ** tau.g


def _post_ingest(tracer, args, kwargs, result, state) -> None:
    tracer.counts["cli.ingest.records"] += len(result)


def _post_runner(tracer, args, kwargs, result, state) -> None:
    tracer.counts["cli.runner.reports"] += len(result.reports)


def _post_report(tracer, args, kwargs, result, state) -> None:
    path = args[2] if len(args) > 2 else kwargs.get("path")
    written = os.path.getsize(path) if path else tracer.stdout_tell() - state
    tracer.counts["cli.report.bytes"] += written


_POST_HOOKS = {
    "theta.torus_l2_norm": _post_l2,
    "theta.torus_log_integral": _post_log,
    "theta.eval_F_raw": _post_eval_f,
    "cli.ingest.ingest_curves": _post_ingest,
    "cli.runner.run_suite": _post_runner,
    "cli.report.emit_report": _post_report,
}
