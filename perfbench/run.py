"""Benchmark of the ``ptk`` command line, end to end and per module layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is one ``ptk`` command run in a closed loop by one client: an
invocation starts only after the previous one exits, because a CLI user
waits for the verdict. With ``--trace 0`` every invocation is a cold
``python -m periodkit.cli`` process with tracing off, and the end-to-end
metrics are printed. With ``--trace 1`` the same command runs in this
process, alternately untraced and with spans around every public function
of each module, and the per-layer metrics are printed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program under test is the checkout's own ``src/``; nothing else is put
on ``PYTHONPATH``. Inputs are generated from ``--seed`` under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import check
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TIMEOUT_S = 90.0
SETUP_SAMPLES = 5

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "verify-fixtures": {"argv": ["verify", "--suite", "all", "--json", "{out}"],
                        "count": 0, "kind": "verify", "quad_points": 64},
    "curve-batch": {"argv": ["verify", "--suite", "all", "--curves", "{curves}", "--json", "{out}"],
                    "count": 1000, "kind": "verify", "quad_points": 64},
    "theta-fine": {"argv": ["--quad-points", "256", "verify", "--suite", "theta", "--json", "{out}"],
                   "count": 0, "kind": "verify", "quad_points": 256},
    "height-bulk": {"argv": ["height", "--curves", "{curves}"],
                    "count": 10000, "kind": "height", "quad_points": 64},
}
SUITES = ("lattice", "modular", "theta", "heights", "bounds", "interpolation", "isogeny", "serre")
FIXTURES = os.path.join(SRC, "periodkit", "fixtures", "curves.jsonl")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment without PTK_FIXTURES and the PYTHON* settings.

    Those settings change what is measured (unbuffered output, bytecode never
    written, a cache prefix); children import only the checkout's src/.
    """
    env = {k: v for k, v in os.environ.items() if k != "PTK_FIXTURES" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """The small process (``launcher.py``) that starts and reaps the children.

    A child's peak RSS (ru_maxrss) also counts the memory of the process it
    was forked from, so the children are not forked from this process.
    """

    def __enter__(self) -> "Launcher":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def spawn(self, argv: list, env: dict, stdout_path: str, stderr_path: str) -> tuple:
        """Run one child to completion: (wall s, exit code, peak RSS KiB, timed out)."""
        self._proc.stdin.write(json.dumps([argv, env, stdout_path, stderr_path, TIMEOUT_S]) + "\n")
        self._proc.stdin.flush()
        result = json.loads(self._proc.stdout.readline() or '{"error": "launcher exited"}')
        if isinstance(result, dict):
            raise OSError(result["error"])
        return tuple(result)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def check_isolation(env: dict) -> None:
    """A cold start that must import periodkit from this checkout's src/.

    It also compiles the bytecode, so it is the discarded first cold start:
    every timed start after it finds the bytecode written.
    """
    if not os.path.isdir(os.path.join(SRC, "periodkit")):
        raise SetupError(f"no periodkit package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import periodkit.cli, periodkit; print(periodkit.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    where = os.path.realpath(proc.stdout.strip() or "?")
    if proc.returncode != 0 or not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"periodkit imported from {where!r}, not {SRC}: {proc.stderr[-500:]}")


def setup_times(launcher: Launcher, env: dict, samples: int) -> list[float]:
    """Wall times of cold interpreters that only import periodkit.cli."""
    argv = [sys.executable, "-c", "import periodkit.cli"]
    return [launcher.spawn(argv, env, os.devnull, os.devnull)[0] for _ in range(samples)]


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def prepare(name: str, seed: int) -> tuple[dict, str, list, check.Reference, int]:
    """Inputs and reference for one workload: (spec, run dir, ptk argv, reference, records)."""
    spec = WORKLOADS[name]
    run_dir = os.path.join(WORK, f"{name}-{seed}")
    os.makedirs(run_dir, exist_ok=True)
    curves = os.path.join(run_dir, "curves.jsonl")
    batch = gen.generate(curves, spec["count"], seed) if spec["count"] else None
    argv = [a.format(out=os.path.join(run_dir, "report.json"), curves=curves) for a in spec["argv"]]
    stored = None
    if batch:  # fixed inputs use the committed reference; generated ones one per input file
        with open(curves, "rb") as fh:
            stored = os.path.join(run_dir, f"reference-{hashlib.sha256(fh.read()).hexdigest()[:16]}.json")
    ref = check.Reference(name, spec["kind"], batch, stored)
    if batch:
        records = len(batch.labels)
    else:
        with open(FIXTURES, encoding="utf-8") as fh:
            records = sum(1 for line in fh if line.strip())
    return spec, run_dir, argv, ref, records


def json_out(argv: list):
    return argv[argv.index("--json") + 1] if "--json" in argv else None


def remove_report(argv: list) -> None:
    """Delete the previous JSON report, so a run that writes none cannot pass."""
    path = json_out(argv)
    if path and os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------

def distribution(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    q1, med, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0],) * 3
    out = {"n": n, "median": med, "p25": q1, "p75": q3}
    if n > 10:
        pct = (100 * (n - 10)) // n
        out[f"p{pct}"] = xs[max(0, -(-pct * n // 100) - 1)]
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _openblas_threads() -> int | None:
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment(report_count: int) -> dict:
    import numpy

    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "reports": report_count,
    }


def report_count(kind: str, stdout: str, json_path) -> int:
    if kind == "height":
        return len(stdout.splitlines())
    with open(json_path, encoding="utf-8") as fh:
        return len(json.load(fh)["reports"])


# ---------------------------------------------------------------------------
# End-to-end run: cold processes, tracing off
# ---------------------------------------------------------------------------

def run_cold(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    env = child_env()
    check_isolation(env)
    spec, run_dir, argv, ref, records = prepare(name, seed)
    cmd = [sys.executable, "-m", "periodkit.cli", *argv]
    out_path, err_path = os.path.join(run_dir, "stdout.txt"), os.path.join(run_dir, "stderr.txt")
    walls, rss, failures, failed_walls = [], [], [], []
    attempted = 0
    count = 0
    with Launcher() as launcher:
        setup = setup_times(launcher, env, SETUP_SAMPLES)
        deadline = time.perf_counter() + seconds
        while not attempted or time.perf_counter() < deadline:
            remove_report(argv)
            wall, rc, rss_kb, timed_out = launcher.spawn(cmd, env, out_path, err_path)
            with open(out_path, encoding="utf-8", errors="replace") as fh:
                stdout = fh.read()
            mismatch = ref.check(stdout, json_out(argv))  # sets the reference on first use
            failure = check.classify(rc, timed_out, ref.expected_rc, mismatch)
            attempted += 1
            if failure:
                failures.append(failure)
                failed_walls.append((wall, rss_kb / 1024.0))
            else:
                count = count or report_count(spec["kind"], stdout, json_out(argv))
                walls.append(wall)
                rss.append(rss_kb / 1024.0)
            # spread the set-up samples over the run, so that a slow spell of
            # the machine weighs on set-up and workload alike
            setup += setup_times(launcher, env, 1)
    if not walls:  # every invocation failed: report what they took, marked incorrect
        walls, rss = [w for w, _ in failed_walls], [r for _, r in failed_walls]
    wall = distribution(walls)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall["median"], "unit": "s"},
        "records_per_s": {"value": records / wall["median"], "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    detail = {"wall_s": wall, "setup_s": distribution(setup), "records": records,
              "failures": failures[:5], "env": environment(count)}
    return metrics, attempted, len(failures), detail


# ---------------------------------------------------------------------------
# Traced run: in process, spans on, per-layer metrics
# ---------------------------------------------------------------------------

def _in_process(cli, argv: list, traced: bool):
    """One ptk command in this process: (exit code, stdout, warnings, wall s, tracer or None)."""
    remove_report(argv)
    out = io.StringIO()
    tracer = spans.Tracer(out.tell) if traced else None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed invocation, as in a cold process
            traceback.print_exc()
            rc = 1
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
    return rc, out.getvalue(), caught, wall, tracer


def _suite_times(cli, argv: list, spec: dict) -> dict:
    """Seconds per suite, calling run_suite once per suite in SUITES order."""
    times = {f"cli.suite.{s}.s": 0.0 for s in SUITES}
    if spec["kind"] != "verify":
        return times  # ptk height runs no suite
    curves = argv[argv.index("--curves") + 1] if "--curves" in argv else cli.default_fixture_path()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = cli.ingest_curves(curves)
    for suite in SUITES:
        t0 = time.perf_counter()
        cli.run_suite(suite, records, quad_points=spec["quad_points"])
        times[f"cli.suite.{suite}.s"] = time.perf_counter() - t0
    return times


def layer_metrics(tracer: spans.Tracer, caught: list) -> dict:
    m = tracer.metrics()
    get = lambda k: m.get(k, 0.0)  # noqa: E731 - a layer that was never called counts 0
    theta_self = get("theta.self_s")
    out = {
        "theta.calls": get("theta.calls"),
        "theta.self_s": theta_self,
        "theta.terms": get("theta.terms"),
        "theta.terms_per_s": get("theta.terms") / theta_self if theta_self > 0 else 0.0,
        "theta.grid_bytes": get("theta.grid_bytes"),
        "modular.silverman_f_extrema.s": get("modular.silverman_f_extrema.s"),
        "interpolation.lemma52_checks.s": get("interpolation.lemma52_checks.s"),
        "interpolation.schwarz_lemma_check.s": get("interpolation.schwarz_lemma_check.s"),
        "bounds.structural_constants.s": get("bounds.structural_constants.s"),
        "cli.ingest.records": get("cli.ingest.records"),
        "cli.ingest.skipped": sum("skipped invalid record" in str(w.message) for w in caught),
        "cli.ingest.reduced": sum(") reduced to (" in str(w.message) for w in caught),
        "cli.ingest.self_s": get("cli.ingest.self_s"),
        "lattice.siegel_reduce.calls": get("lattice.siegel_reduce.calls"),
        "modular.qseries.calls": get("modular.delta_on_upper_half_plane.calls") + get("modular.j_invariant.calls"),
        "modular.truncation_errors": get("modular.truncation_errors"),
        "cli.report.emit_s": get("cli.report.emit_report.s"),
        "cli.report.bytes": get("cli.report.bytes"),
        "cli.runner.reports": get("cli.runner.reports"),
        "cli.runner.self_s": get("cli.runner.self_s"),
    }
    for layer in ("lattice", "modular", "heights", "interpolation", "bounds", "isogeny", "serre"):
        out[f"{layer}.calls"] = get(f"{layer}.calls")
        out[f"{layer}.self_s"] = get(f"{layer}.self_s")
    return out


PER_LAYER_UNITS = {"calls": "count", "terms": "count", "records": "count", "skipped": "count",
                   "reduced": "count", "reports": "count", "truncation_errors": "count",
                   "bytes": "B", "grid_bytes": "B", "terms_per_s": "1/s"}


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[1], "s")


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    env = child_env()
    check_isolation(env)
    os.environ.pop("PTK_FIXTURES", None)
    sys.path.insert(0, SRC)
    from periodkit import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"periodkit imported from {cli.__file__}, not {SRC}")
    spec, run_dir, argv, ref, records = prepare(name, seed)
    failures, attempted = [], 0

    def attempt(traced: bool):
        nonlocal attempted
        rc, stdout, caught, wall, tracer = _in_process(cli, argv, traced)
        mismatch = ref.check(stdout, json_out(argv))
        failure = check.classify(rc, False, ref.expected_rc, mismatch)
        attempted += 1
        if failure:
            failures.append(failure)
        return wall, caught, stdout, tracer

    stdout = attempt(False)[2]  # warm-up: lazy set-up and caches
    count = 0 if failures else report_count(spec["kind"], stdout, json_out(argv))
    suite_times = _suite_times(cli, argv, spec)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(attempt(False)[0])
        wall, caught, _, tracer = attempt(True)
        traced.append(wall)
        layers.append(layer_metrics(tracer, caught))
    tracer.write(os.path.join(run_dir, "spans.tsv"))
    metrics = {k: {"value": statistics.median(r[k] for r in layers), "unit": unit_of(k)}
               for k in layers[0]}
    for k, v in suite_times.items():
        metrics[k] = {"value": v, "unit": "s"}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    detail = {"untraced_s": distribution(plain), "traced_s": distribution(traced),
              "records": records, "failures": failures[:5], "env": environment(count)}
    return metrics, attempted, len(failures), detail


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                   help="one workload, or all in turn with a result line each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # One BLAS thread, here and in every child: on a small shared machine a
    # second thread costs more CPU than it saves and makes the wall time
    # depend on what else runs on the other core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    runner = run_traced if args.trace else run_cold
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            metrics, attempted, failed, detail = runner(name, args.seed, args.seconds)
        except (SetupError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        detail.update(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                      fail_ratio=failed / attempted, metrics=metrics)
        with open(os.path.join(WORK, f"{name}-{args.seed}", f"result-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        for key, m in metrics.items():
            print(f"{name}  {key:<40} {m['value']:>16.6g} {m['unit']}")
        print(f"{name}  fail_ratio {failed}/{attempted}  env {json.dumps(detail['env'])}")
        if "wall_s" in detail:
            print(f"{name}  wall_s distribution {json.dumps(detail['wall_s'])}")
        for failure in detail["failures"]:
            print(f"{name}  FAILED: {failure}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
