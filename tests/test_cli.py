import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import periodkit
from periodkit import cli
from periodkit.bounds import BoundReport
from periodkit.cli import (
    RunManifest,
    default_fixture_path,
    emit_report,
    ingest_curves,
    main,
    run_suite,
)

VALID_LINE = (
    '{"label": "probe", "degree": 1, '
    '"embeddings": [{"tau_re": 0.0, "tau_im": 1.25}], '
    '"log_norm_minimal_discriminant": 2.0, "j_num": "50", "j_den": "3"}'
)


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.jsonl"
        path.write_text("")
        assert ingest_curves(str(path)) == []

    def test_single_valid_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(VALID_LINE + "\n")
        records = ingest_curves(str(path))
        assert len(records) == 1
        assert records[0].label == "probe"
        assert records[0].j_rational == (50, 3)

    def test_unreduced_tau_is_reduced_with_warning(self, tmp_path):
        path = tmp_path / "unred.jsonl"
        path.write_text(
            '{"label": "wild", "degree": 1, '
            '"embeddings": [{"tau_re": 5.3, "tau_im": 0.2}], '
            '"log_norm_minimal_discriminant": 0.0}\n'
        )
        with pytest.warns(UserWarning) as caught:
            records = ingest_curves(str(path))
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "reduced" in messages[0] and "has no conjugate partner" in messages[1]
        assert len(records) == 1
        t = records[0].embeddings[0]
        assert t.re == pytest.approx(-4.0 / 13.0, abs=1e-12)
        assert t.im == pytest.approx(20.0 / 13.0, abs=1e-12)

    def test_invalid_line_is_skipped_with_line_number(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"label": "broken"}\n' + VALID_LINE + "\n")
        with pytest.warns(UserWarning, match=":1:"):
            records = ingest_curves(str(path))
        assert [r.label for r in records] == ["probe"]

    def test_malformed_number_is_skipped(self, tmp_path):
        path = tmp_path / "badnum.jsonl"
        path.write_text(VALID_LINE.replace("1.25", '"tall"') + "\n")
        with pytest.warns(UserWarning):
            assert ingest_curves(str(path)) == []

    def test_fixture_env_override(self, tmp_path, monkeypatch):
        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir()
        (fixture_dir / "curves.jsonl").write_text(VALID_LINE + "\n")
        monkeypatch.setenv("PTK_FIXTURES", str(fixture_dir))
        assert default_fixture_path() == str(fixture_dir / "curves.jsonl")
        assert [r.label for r in ingest_curves(default_fixture_path())] == ["probe"]


NON_FINITE_LINES = (
    '{"label": "nan_tau", "degree": 1, "embeddings": [{"tau_re": NaN, "tau_im": NaN}], '
    '"log_norm_minimal_discriminant": 1.0}\n'
    '{"label": "inf_im", "degree": 1, "embeddings": [{"tau_re": 0.1, "tau_im": Infinity}], '
    '"log_norm_minimal_discriminant": 1.0}\n'
    '{"label": "nan_disc", "degree": 1, "embeddings": [{"tau_re": 0.0, "tau_im": 1.5}], '
    '"log_norm_minimal_discriminant": NaN}\n'
)


class TestStrictInput:
    def test_non_finite_lines_are_skipped(self, tmp_path):
        path = tmp_path / "nonfinite.jsonl"
        path.write_text(NON_FINITE_LINES + VALID_LINE + "\n")
        with pytest.warns(UserWarning, match="skipped invalid record") as caught:
            records = ingest_curves(str(path))
        assert [r.label for r in records] == ["probe"]
        assert [str(w.message).split(": skipped")[0] for w in caught] == [f"{path}:{n}" for n in (1, 2, 3)]
        assert not any("reduced" in str(w.message) for w in caught)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("degree", 1.9),
            ("degree", True),
            ("degree", "1"),
            ("j_num", 2.7),
            ("j_num", True),
            ("j_num", "2.7"),
            ("j_num", "1_000"),
            ("j_den", 3.0),
            ("j_den", " 3"),
        ],
    )
    def test_non_integral_fields_are_skipped(self, tmp_path, key, value):
        path = tmp_path / "nonint.jsonl"
        path.write_text(json.dumps(dict(json.loads(VALID_LINE), **{key: value})) + "\n" + VALID_LINE + "\n")
        with pytest.warns(UserWarning, match=f":1: skipped invalid record: {key} = "):
            records = ingest_curves(str(path))
        assert [r.label for r in records] == ["probe"]

    @pytest.mark.parametrize("as_string", [True, False])
    def test_integers_of_up_to_4300_digits(self, tmp_path, as_string):
        # CPython's default int <-> str limit: a longer j_num fails in int() or in json.loads
        lines = []
        for digits in (4300, 4301):
            num = "9" * digits
            lines.append(VALID_LINE.replace('"j_num": "50"', f'"j_num": "{num}"' if as_string else f'"j_num": {num}'))
        path = tmp_path / "long.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match=r":2: skipped invalid record: Exceeds the limit \(4300 digits\)"):
            records = ingest_curves(str(path))
        assert [r.j_rational for r in records] == [(10**4300 - 1, 3)]

    @pytest.mark.parametrize(
        "key, field, value",
        [
            ("tau_re", "embeddings", [[True, 2]]),
            ("tau_re", "embeddings", [["0.5", "2.5"]]),
            ("tau_im", "embeddings", [{"tau_re": 0.0, "tau_im": "1.25"}]),
            ("tau_im", "embeddings", [{"tau_re": 0.0, "tau_im": False}]),
            ("log_norm_minimal_discriminant", "log_norm_minimal_discriminant", "11.9"),
            ("log_norm_minimal_discriminant", "log_norm_minimal_discriminant", True),
        ],
    )
    def test_non_numbers_in_float_fields_are_skipped(self, tmp_path, key, field, value):
        path = tmp_path / "nonnum.jsonl"
        path.write_text(json.dumps(dict(json.loads(VALID_LINE), **{field: value})) + "\n" + VALID_LINE + "\n")
        with pytest.warns(UserWarning, match=f":1: skipped invalid record: {key} = "):
            records = ingest_curves(str(path))
        assert [r.label for r in records] == ["probe"]

    def test_integer_too_large_for_a_float_is_skipped(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(VALID_LINE.replace("1.25", "1" + "0" * 400) + "\n" + VALID_LINE + "\n")
        with pytest.warns(UserWarning, match=":1: skipped invalid record: int too large"):
            records = ingest_curves(str(path))
        assert [r.label for r in records] == ["probe"]

    def test_j_as_json_integers_or_signed_digit_strings(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text(
            VALID_LINE.replace('"50"', "50").replace('"3"', "3") + "\n" + VALID_LINE.replace('"50"', '"-50"') + "\n"
        )
        assert [r.j_rational for r in ingest_curves(str(path))] == [(50, 3), (-50, 3)]

    @pytest.mark.parametrize("content", ["", "\n\n", NON_FINITE_LINES])
    @pytest.mark.parametrize(
        "argv",
        [["height"], ["verify"], ["verify", "--suite", "heights"], ["bound", "matrix-lemma"]],
    )
    def test_no_valid_records_is_an_input_error(self, tmp_path, capsys, recwarn, content, argv):
        path = tmp_path / "curves.jsonl"
        path.write_text(content)
        assert main(argv + ["--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no valid records in {path}\n"

    def test_json_identical_across_checkouts(self, tmp_path):
        with open(default_fixture_path(), "rb") as fh:
            fixture = fh.read()
        outputs = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            curves = tmp_path / name / "curves.jsonl"
            curves.write_bytes(fixture)
            out = tmp_path / name / "report.json"
            assert main(["verify", "--suite", "heights", "--curves", str(curves), "--json", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["input_digests"].keys() == {"curves.jsonl"}


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_curve_line() -> str:
    """The example record of the README's "Curve fixtures" section, on one line."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Curve fixtures", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    return " ".join(block.split())


class TestEmbeddingForms:
    def test_readme_example_ingests_like_the_fixture(self, tmp_path, bundled_records):
        line = _readme_curve_line()
        assert '"embeddings": [[0.5, 1.1493901061232524]]' in line
        path = tmp_path / "readme.jsonl"
        path.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = ingest_curves(str(path))
        assert records == [bundled_records[0]]

    def test_height_on_readme_example(self, tmp_path, capsys):
        path = tmp_path / "readme.jsonl"
        path.write_text(_readme_curve_line() + "\n")
        assert main(["height", "--curves", str(path)]) == 0
        out = capsys.readouterr().out
        assert main(["height"]) == 0
        assert out == capsys.readouterr().out.splitlines(keepends=True)[0]

    @pytest.mark.parametrize(
        "embeddings",
        ["[[0.5]]", "[[0.5, 1.2, 0.0]]", "[0.5]", '["0.5 1.2"]', '[{"tau_re": 0.5}]', "[[null, 1.2]]"],
    )
    def test_other_embedding_shapes_are_skipped(self, tmp_path, embeddings):
        path = tmp_path / "bad.jsonl"
        path.write_text(VALID_LINE.replace('[{"tau_re": 0.0, "tau_im": 1.25}]', embeddings) + "\n")
        with pytest.warns(UserWarning, match="skipped invalid record"):
            assert ingest_curves(str(path)) == []


class TestRunSuite:
    def test_serre_manifest_contains_threshold(self):
        manifest = run_suite("serre", [])
        assert manifest.all_satisfied
        values = [
            r["inputs"].get("value")
            for r in manifest.reports
            if r["name"] == "threshold_integer"
        ]
        assert values == [3094027.0]

    def test_interpolation_suite_green(self):
        manifest = run_suite("interpolation", [])
        assert manifest.all_satisfied

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("spectra", [])

    def test_suite_label_recorded(self, bundled_records):
        manifest = run_suite("heights", bundled_records)
        assert manifest.suites == ["heights"]
        assert all(r["suite"] == "heights" for r in manifest.reports)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_round_trip_builds_200_determinant_one_maps(self, seed, monkeypatch):
        built = []

        def recording(rng):
            built.append(draw(rng))
            return built[-1]

        draw = cli._random_unimodular
        monkeypatch.setattr(cli, "_random_unimodular", recording)
        (report,) = [r for r in run_suite("lattice", [], seed=seed).reports if r["name"] == "siegel_round_trip_200"]
        assert len(built) == 200
        assert all(m.a * m.d - m.b * m.c == 1 for m in built)
        assert report["satisfied"] and 0.0 < report["lhs"] < 1e-12

    def test_seed_reaches_the_quadratic_root_trials(self, bundled_records):
        def worst_trial(seed):
            manifest = run_suite("bounds", bundled_records, seed=seed)
            (report,) = [r for r in manifest.reports if r["name"] == "quadratic_root_fact"]
            return report

        default, seeded = worst_trial(0), worst_trial(5)
        assert seeded["inputs"] != default["inputs"]
        assert seeded["satisfied"] and default["satisfied"]


class TestEmitReport:
    def make_manifest(self):
        return run_suite("serre", [])

    def test_json_round_trip_is_lossless(self, tmp_path):
        manifest = self.make_manifest()
        path = tmp_path / "report.json"
        emit_report(manifest, "json", str(path))
        assert json.loads(path.read_text()) == manifest.to_dict()

    def test_json_bytes_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self.make_manifest(), "json", str(a))
        emit_report(self.make_manifest(), "json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_text_table_has_margin_column(self, capsys):
        emit_report(self.make_manifest(), "text")
        out = capsys.readouterr().out
        assert "margin" in out.splitlines()[1]
        assert "PASS" in out

    @staticmethod
    def emit_tolerances(tolerances, path) -> str:
        emit_report(RunManifest([], [], tolerances, None), "json", str(path))
        return path.read_text()

    @pytest.mark.parametrize("x", [1.0 / 3.0, 1.0, 1e16, 5e-324, -0.0])
    def test_floats_round_trip_exactly(self, x, tmp_path):
        text = self.emit_tolerances({"x": x}, tmp_path / "x.json")
        assert f'"x": {x!r}' in text
        back = json.loads(text)["tolerances"]["x"]
        assert type(back) is float
        assert struct.pack("<d", back) == struct.pack("<d", x)

    def test_empty_report_list_stays_empty_brackets(self, tmp_path):
        text = self.emit_tolerances({"seed": 0}, tmp_path / "e.json")
        assert '\n  "reports": [],\n' in text
        assert json.loads(text)["reports"] == []

    def test_sorted_keys(self, tmp_path):
        rendered = self.emit_tolerances({"b": 1, "a": 2}, tmp_path / "k.json")
        assert rendered.index('"a"') < rendered.index('"b"')

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_and_writes_nothing(self, x, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            self.emit_tolerances({"seed": 0, "x": x}, path)
        assert not path.exists()

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError):
            emit_report(self.make_manifest(), "json", "/nonexistent-dir/x.json")


def _reports_span(lines: list) -> tuple:
    """Indices of the opening and the closing line of the top-level reports list."""
    start = lines.index('  "reports": [')
    return start, next(k for k in range(start, len(lines)) if lines[k].startswith("  ]"))


def _assert_bit_identical(loaded, expected, where="$"):
    assert type(loaded) is type(expected), where
    if isinstance(expected, dict):
        assert loaded.keys() == expected.keys(), where
        for key in expected:
            _assert_bit_identical(loaded[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(loaded) == len(expected), where
        for k, (a, b) in enumerate(zip(loaded, expected)):
            _assert_bit_identical(a, b, f"{where}[{k}]")
    elif isinstance(expected, float):
        assert struct.pack("<d", loaded) == struct.pack("<d", expected), where
    else:
        assert loaded == expected, where


class TestCanonicalJson:
    """The emitted layout and the parsed values, on the fixture run."""

    @pytest.fixture(scope="class")
    def fixture_manifest(self, bundled_records):
        return run_suite("all", bundled_records)

    @pytest.fixture(scope="class")
    def emitted(self, fixture_manifest, tmp_path_factory):
        path = tmp_path_factory.mktemp("canonical") / "report.json"
        emit_report(fixture_manifest, "json", str(path))
        return path.read_text(encoding="utf-8")

    def test_one_report_per_line_in_an_indented_top_level(self, fixture_manifest, emitted):
        doc = fixture_manifest.to_dict()
        reports = doc["reports"]
        lines = emitted.splitlines()
        start, end = _reports_span(lines)
        assert lines[start + 1 : end] == [
            "    " + json.dumps(r, sort_keys=True, allow_nan=False) + ("," if k < len(reports) - 1 else "")
            for k, r in enumerate(reports)
        ]
        indented = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).splitlines()
        old_start, old_end = _reports_span(indented)
        assert lines[: start + 1] + lines[end:] == indented[: old_start + 1] + indented[old_end:]
        assert emitted.endswith("\n}\n")
        extracted = _perfbench_check().reports_bytes(emitted).decode()
        assert json.loads(extracted.split(":", 1)[1].rstrip().rstrip(",")) == reports

    def test_parses_back_bit_identical(self, fixture_manifest, emitted):
        _assert_bit_identical(json.loads(emitted), fixture_manifest.to_dict())

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        src = str(Path(periodkit.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env.pop("PTK_FIXTURES", None)
            out = tmp_path / f"theta-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "periodkit.cli", "verify", "--suite", "theta", "--json", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_verify_serre_all_pass(self, capsys):
        assert main(["verify", "--suite", "serre"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_violated_inequality_returns_one(self, tmp_path, capsys):
        # a j value inconsistent with a heavy discriminant breaks the
        # height-versus-j comparison
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"label": "impossible", "degree": 1, '
            '"embeddings": [{"tau_re": 0.0, "tau_im": 1.25}], '
            '"log_norm_minimal_discriminant": 500.0, "j_num": "1", "j_den": "1"}\n'
        )
        code = main(["verify", "--suite", "heights", "--curves", str(bad)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_curves_file_returns_two(self, tmp_path, capsys):
        code = main(["verify", "--suite", "heights", "--curves", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_tol_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", "1", "verify"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ptk")

    def test_reduce_subcommand(self, capsys):
        assert main(["reduce", "5.3", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "(2, -11; 1, -5)" in out

    def test_rho_subcommand(self, capsys):
        assert main(["rho", "0.0", "2.0"]) == 0
        assert "rho^-2 = 2" in capsys.readouterr().out

    def test_delta_subcommand(self, capsys):
        assert main(["delta", "0.0", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "delta = 0.5" in out

    def test_delta_subcommand_at_im_1e3(self, capsys):
        assert main(["delta", "0", "1e3"]) == 0
        assert capsys.readouterr().out == (
            "delta = 0.022360679774997897\nrho/sqrt(2) = 0.022360679774997894\n"
        )

    def test_delta_subcommand_at_im_1e6(self, capsys):
        start = time.perf_counter()
        assert main(["delta", "0", "1e6"]) == 0
        assert time.perf_counter() - start < 5.0
        delta, closed = (line.split(" = ")[1] for line in capsys.readouterr().out.splitlines())
        assert float(delta) == pytest.approx(float(closed), rel=1e-15)

    @pytest.mark.parametrize("command", ["reduce", "rho", "delta"])
    @pytest.mark.parametrize("re, im", [("nan", "1"), ("0", "nan"), ("inf", "1"), ("0", "inf")])
    def test_non_finite_period_ratio_is_an_input_error(self, command, re, im, capsys):
        assert main([command, re, im]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: periods must be finite\n"

    def test_theta_check_subcommand(self, capsys):
        assert main(["theta", "check", "--tau-im", "1.0"]) == 0
        assert "expect 1" in capsys.readouterr().out

    def test_theta_check_reduces_tau(self, capsys):
        assert main(["theta", "check", "--tau-im", "0.5"]) == 0
        reduced = capsys.readouterr().out
        assert main(["theta", "check", "--tau-im", "2"]) == 0
        assert reduced == capsys.readouterr().out

    def test_theta_check_near_the_cusp_finishes(self, capsys):
        # tau = 1e-9 i reduces to 1e9 i, where m = 64 under-resolves the integrals (exit 1)
        start = time.perf_counter()
        assert main(["theta", "check", "--tau-im", "1e-9"]) in (0, 1)
        assert time.perf_counter() - start < 5.0
        assert "expect 1" in capsys.readouterr().out

    @pytest.mark.parametrize("im, code", [("300", 0), ("1000", 1)])
    def test_theta_check_states_its_aliasing_term(self, im, code, capsys):
        # on the even m = 64 grid the L2 mean is 1 + 2 sum_k (-1)^k e^{-pi k^2 m^2 / (2 Im tau)}
        assert main(["theta", "check", "--tau-im", im]) == code
        line = capsys.readouterr().out.splitlines()[0]
        l2 = float(line.split(" = ")[1].split()[0])
        alias = float(line.split(" = ")[2].split()[0])
        terms = [2.0 * math.exp(-math.pi * k * k * 64**2 / (2.0 * float(im))) for k in (1, 2, 3)]
        assert alias == pytest.approx(terms[0], rel=1e-2)
        assert l2 == pytest.approx(1.0 - terms[0] + terms[1] - terms[2], abs=1e-12)

    @pytest.mark.parametrize("flag, value", [("--tau-im", "inf"), ("--tau-re", "nan")])
    def test_theta_check_rejects_non_finite_tau(self, flag, value, capsys):
        assert main(["theta", "check", flag, value]) == 2
        assert "error: periods must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("im", ["1e307", "1.7e308"])
    def test_theta_check_overflow_is_an_error(self, im, capsys):
        # the L2 exponents overflow from about Im tau = 6e306: no NaN line, no warning
        assert main(["theta", "check", "--tau-re", "0", "--tau-im", im]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_height_subcommand(self, capsys):
        assert main(["height"]) == 0
        out = capsys.readouterr().out
        assert "11a1" in out and "h_F" in out

    def test_bound_isogeny_subcommand(self, capsys):
        assert main(["bound", "isogeny", "--case", "real", "--h-f", "1.0"]) == 0
        assert "3583" in capsys.readouterr().out

    def test_bound_matrix_lemma_subcommand(self, capsys):
        assert main(["bound", "matrix-lemma"]) == 0
        assert "matrix_lemma_eleven" in capsys.readouterr().out

    def test_bound_matrix_lemma_is_the_bounds_suite(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(VALID_LINE + "\n")

        def outputs(code):
            got = []
            for argv in (["bound", "matrix-lemma"], ["verify", "--suite", "bounds"]):
                assert main(argv + ["--curves", str(path)]) == code
                got.append(re.sub(r"wall time \S+", "", capsys.readouterr().out))
            assert got[0] == got[1]
            return got[0]

        assert "0 failed" in outputs(0)
        # the bounds suite proves its inequalities for every valid record, so a
        # failing report is added to it for the exit code
        suite = cli.SUITES["bounds"]
        monkeypatch.setitem(
            cli.SUITES,
            "bounds",
            lambda records, seed, quad: suite(records, seed, quad)
            + [BoundReport(f"forced[{records[0].label}]", 2.0, 1.0)],
        )
        assert "forced[probe] 2 1 -1 FAIL" in " ".join(outputs(1).split())

    def test_serre_threshold_subcommand(self, capsys):
        assert main(["serre", "threshold"]) == 0
        assert "p_star = 3094027" in capsys.readouterr().out

    def test_verify_writes_json_when_asked(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["verify", "--suite", "serre", "--json", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert reports and all(r["satisfied"] for r in reports)

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("reduce", "tau = 0.10000000000000001 + 9.9999999999999996e+297i\nmap = (1, 0; 0, 1)\n"),
            ("rho", "rho^-2 = 9.9999999999999996e+297\n"),
            ("delta", None),
        ],
        ids=["reduce", "rho", "delta"],
    )
    def test_point_near_the_cusp(self, command, expected, capsys):
        assert main([command, "0.1", "1e298"]) == 0
        captured = capsys.readouterr()
        if expected is None:
            delta, closed = (float(line.split(" = ")[1]) for line in captured.out.splitlines())
            assert delta == pytest.approx(closed, rel=1e-15)
        else:
            assert captured.out == expected

    @pytest.mark.parametrize("command", ["reduce", "rho", "delta"])
    @pytest.mark.parametrize("re, im", [("0.3", "1e-12"), ("0.3", "1e-20"), ("0.3", "5e-324"), ("0.1", "1e-300")])
    def test_point_too_near_the_real_axis(self, command, re, im, capsys):
        # the double-precision reduction of these points is off by more than DEFAULT_TOL
        assert main([command, re, im]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Im z = {float(im)} is too close to the real axis to reduce in double precision\n"

    @pytest.mark.parametrize("command", ["reduce", "rho", "delta"])
    @pytest.mark.parametrize("im", ["1e-320", "5e-324"])
    def test_overflowing_s_step_is_an_input_error(self, command, im, capsys):
        # -1/z overflows Im z to inf although the input is finite; the error names the input
        assert main([command, "0", im]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Im z = {float(im)} is too close to the real axis to reduce in double precision\n"

    @pytest.mark.parametrize("re, im", [("0.3", "1e12"), ("0.3", "1e100"), ("0.3", "1e298"), ("0", "1.7e308")])
    def test_delta_near_the_cusp(self, re, im, capsys):
        assert main(["delta", re, im]) == 0
        delta, closed = (float(line.split(" = ")[1]) for line in capsys.readouterr().out.splitlines())
        assert closed == pytest.approx(1.0 / math.sqrt(2.0 * float(im)), rel=1e-15)
        assert delta == pytest.approx(closed, rel=1e-15)

    @pytest.mark.parametrize("argv", [["height"], ["verify"]])
    def test_record_near_the_cusp(self, argv, tmp_path, capsys):
        # 1 + 1e298 i reduces to 1e298 i, where |tau|^2 overflows a float:
        # the height and every report value are still finite there
        path = tmp_path / "cusp.jsonl"
        path.write_text(VALID_LINE.replace('[{"tau_re": 0.0, "tau_im": 1.25}]', "[[1.0, 1e298]]") + "\n")
        with pytest.warns(UserWarning, match="reduced"):
            code = main(argv + ["--curves", str(path)])
        captured = capsys.readouterr()
        if argv == ["height"]:
            assert code == 0
            h_f = float(captured.out.split("h_F = ")[1].split(",")[0])
            assert math.isfinite(h_f) and h_f == pytest.approx(5.2e297, rel=0.01)
        else:
            assert code in (0, 1)
            assert captured.err == ""
            numbers = []
            for token in captured.out.split():
                try:
                    numbers.append(float(token))
                except ValueError:
                    pass
            assert numbers and all(math.isfinite(x) for x in numbers)
            assert "period_norm_ceiling" in captured.out

    @pytest.mark.parametrize("argv", [["height"], ["verify"]])
    def test_record_too_near_the_real_axis(self, argv, tmp_path, capsys):
        # an embedding the double-precision reduction cannot place skips its record
        path = tmp_path / "axis.jsonl"
        path.write_text(VALID_LINE.replace('[{"tau_re": 0.0, "tau_im": 1.25}]', "[[0.1, 1e-300]]") + "\n")
        with pytest.warns(UserWarning, match="skipped invalid record: Im z = 1e-300 is too close"):
            assert main(argv + ["--curves", str(path)]) == 2
        assert "no valid records" in capsys.readouterr().err

    @pytest.mark.parametrize("im", ["60", "120", "1900", "1e6"])
    def test_valid_record_at_large_im(self, im, tmp_path, capsys):
        path = tmp_path / "high.jsonl"
        path.write_text(
            f'{{"label": "high", "degree": 1, "embeddings": [[0.5, {im}]], '
            '"log_norm_minimal_discriminant": 5.0}\n'
        )
        assert main(["height", "--curves", str(path)]) == 0
        out = capsys.readouterr().out
        h_f, h = (float(out.split(f"{key} = ")[1].split(",")[0]) for key in ("h_F", "h"))
        assert math.isfinite(h_f) and math.isfinite(h)
        assert "h(j) = nan" in out  # the record carries no j
        report = tmp_path / "high.json"
        assert main(["verify", "--suite", "all", "--curves", str(path), "--json", str(report)]) == 0
        reports = json.loads(report.read_text())["reports"]
        assert any(r["name"] == "delta_lower[high:0]" for r in reports)
        for r in reports:
            assert all(math.isfinite(r[key]) for key in ("lhs", "rhs", "margin")), r["name"]

    @pytest.mark.parametrize(
        "argv",
        [["height"], *(["verify", "--suite", suite] for suite in ("heights", "bounds", "theta"))],
        ids=["height", "heights", "bounds", "theta"],
    )
    def test_height_overflow_is_an_error(self, argv, tmp_path, capsys):
        # 2 pi Im tau overflows inside log Delta from about Im tau = 2.86e307
        path = tmp_path / "overflow.jsonl"
        path.write_text(
            '{"label": "top", "degree": 1, "embeddings": [[0.0, 1.7e308]], '
            '"log_norm_minimal_discriminant": 5.0}\n'
        )
        assert main(argv + ["--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "inf" not in captured.out

    def test_height_just_below_overflow_is_finite(self, tmp_path, capsys):
        path = tmp_path / "high.jsonl"
        path.write_text(
            '{"label": "top", "degree": 1, "embeddings": [[0.0, 2.8e307]], '
            '"log_norm_minimal_discriminant": 5.0}\n'
        )
        assert main(["height", "--curves", str(path)]) == 0
        h_f = float(capsys.readouterr().out.split("h_F = ")[1].split(",")[0])
        assert math.isfinite(h_f) and h_f == pytest.approx(math.pi / 6.0 * 2.8e307, rel=1e-6)

    @pytest.mark.parametrize("h_f", ["1e150", "1e153", "1e155"])
    @pytest.mark.parametrize("case", ["general", "cm", "real"])
    def test_bound_isogeny_overflow_is_an_error(self, case, h_f, capsys):
        # the caps grow like h_F^2: general's simplified 1e13 h_F^2 passes the largest double
        # from h_F ~ 4.2e147, and every case's cap does by h_F ~ 2.3e152
        code = main(["bound", "isogeny", "--case", case, "--h-f", h_f])
        captured = capsys.readouterr()
        if case != "general" and h_f == "1e150":
            assert code == 0
            assert all(math.isfinite(float(line.split(" = ")[1])) for line in captured.out.splitlines())
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {case} isogeny bound is not finite at h_F = {float(h_f):g}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bound_isogeny_rejects_non_finite_h_f(self, value, capsys):
        assert main(["bound", "isogeny", f"--h-f={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: h_F = {float(value)} is not finite\n"


def _perfbench_check():
    """The benchmark's reference check module, loaded read-only from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPinnedReferences:
    """Report names, order, verdicts and margin signs pinned by the benchmark."""

    @pytest.mark.parametrize(
        "workload, argv",
        [
            ("verify-fixtures", ["verify", "--suite", "all"]),
            ("theta-fine", ["--quad-points", "256", "verify", "--suite", "theta"]),
        ],
    )
    def test_summary_equals_committed_reference(self, workload, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PTK_FIXTURES", raising=False)
        check = _perfbench_check()
        with open(os.path.join(check.REFS, f"{workload}.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        out = tmp_path / "reports.json"
        assert main(argv + ["--json", str(out)]) == check.expected_rc(reference)
        summary = check.summarize(json.loads(out.read_text())["reports"])
        assert len(summary) == len(reference)
        for got, want in zip(summary, reference):
            assert got == want
