"""Self-tests of the benchmark: generator, span arithmetic, failure classifier.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
        gen.generate(str(a), 500, seed=3)
        gen.generate(str(b), 500, seed=3)
        gen.generate(str(c), 500, seed=4)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_ingest_matches_generator_counts(self, tmp_path, recwarn):
        from periodkit.cli import ingest_curves

        path = tmp_path / "g.jsonl"
        batch = gen.generate(str(path), 800, seed=5)
        records = ingest_curves(str(path))
        messages = [str(w.message) for w in recwarn]
        assert [r.label for r in records] == batch.labels
        assert sum("skipped invalid record" in m for m in messages) == batch.malformed > 0
        assert sum(") reduced to (" in m for m in messages) == batch.reduced > 0
        assert {r.degree for r in records} == {1, 2, 4}


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
        # c [9, 12] (clipped to the root); a has child g [2, 3]
        built = [
            ["root", -1, 0.0, 10.0, None],
            ["a", 0, 1.0, 4.0, None],
            ["g", 1, 2.0, 3.0, None],
            ["b", 0, 3.0, 6.0, None],
            ["c", 0, 9.0, 12.0, None],
        ]
        assert spans.self_times(built) == [4.0, 2.0, 1.0, 3.0, 3.0]

    def test_layer_sums_and_cross_module_bindings(self):
        from periodkit import cli, heights, theta

        record = cli.ingest_curves(cli.default_fixture_path())[0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert theta.faltings_height_silverman is heights.faltings_height_silverman
            assert cli.faltings_height_silverman is heights.faltings_height_silverman
            theta.bost_inequality_check(record, 16)
        finally:
            tracer.uninstall()
        assert theta.faltings_height_silverman.__module__ == "periodkit.heights"
        assert not hasattr(theta.faltings_height_silverman, "__wrapped__")
        names = [s[spans.NAME] for s in tracer.spans]
        assert names[0] == "theta.bost_inequality_check"
        parent_of = {s[spans.NAME]: s[spans.PARENT] for s in tracer.spans}
        assert parent_of["heights.faltings_height_silverman"] == 0
        assert "modular.delta_on_upper_half_plane" in names
        m = tracer.metrics()
        total = tracer.spans[0][spans.T1] - tracer.spans[0][spans.T0]
        layers = [k for k in m if k.endswith(".self_s") and k.count(".") == 1]
        assert abs(sum(m[k] for k in layers) - total) < 1e-9
        assert m["theta.terms"] > 0


class TestClassifier:
    def test_exit_2_fails(self):
        assert check.classify(2, False, 0, None) == "exit 2"
        assert check.classify(2, False, 1, None) == "exit 2"

    def test_exit_1_matching_reference_is_ok(self):
        summary = [["heights", "height_floor[x]", True, 1], ["heights", "height_vs_j_height", False, -1]]
        assert check.expected_rc(summary) == 1
        assert check.classify(1, False, check.expected_rc(summary), None) is None
        assert check.classify(0, False, check.expected_rc(summary), None) is not None

    def test_empty_height_output_fails(self, tmp_path):
        batch = gen.generate(str(tmp_path / "h.jsonl"), 50, seed=1)
        ref = check.Reference("height-bulk", "height", batch)
        mismatch = ref.check("", None)
        assert mismatch and "ingested 0 records" in mismatch
        assert check.classify(0, False, ref.expected_rc, mismatch) is not None

    def test_timeout_fails(self):
        assert check.classify(None, True, 0, None) == "timed out"

    def test_height_oracle_accepts_exact_rows(self, tmp_path):
        batch = gen.generate(str(tmp_path / "h.jsonl"), 50, seed=2)
        ref = check.Reference("height-bulk", "height", batch)
        text = "".join(f"{lab}: h_F = {hf:.12g}, h = {h:.12g}, h(j) = {hj:.12g}\n"
                       for lab, hf, h, hj in check.height_oracle(batch))
        assert ref.check(text, None) is None
        assert ref.check(text.replace("h_F = ", "h_F = 1", 1), None) is not None


class TestBenchmarkFile:
    def test_metrics_and_workloads_match_benchmark_json(self):
        import json

        import run

        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        emitted = set(run.layer_metrics(spans.Tracer(), []))
        emitted |= {f"cli.suite.{s}.s" for s in run.SUITES} | {"trace.overhead_s"}
        assert emitted == {m["name"] for m in bench["per_layer"]}
        assert all(run.unit_of(m["name"]) == m["unit"] for m in bench["per_layer"])
        assert set(run.WORKLOADS) == {w["name"] for w in bench["workloads"]}


class TestLauncher:
    def test_child_exit_code_and_clean_stop(self, tmp_path):
        import run

        out, err = str(tmp_path / "out"), str(tmp_path / "err")
        with run.Launcher() as launcher:
            wall, rc, rss_kb, timed_out = launcher.spawn(
                [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"], dict(os.environ), out, err)
        assert (rc, timed_out) == (3, False)
        assert wall > 0 and rss_kb > 0
        assert (tmp_path / "out").read_text() == "hi\n"
        assert launcher._proc.returncode == 0  # the launcher ended with its input
