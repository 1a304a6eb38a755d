import contextlib
import hashlib
import importlib.util
import json
import linecache
import math
import os
import random
import re
import stat
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import oracles
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
from periodkit.heights import H_SHIFT, faltings_height_silverman, weil_height_rational_j

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

    def test_unpaired_embedding_warning_names_the_record_and_where_it_was_built(self, tmp_path, capsys):
        path = tmp_path / "lone.jsonl"
        path.write_text(VALID_LINE.replace('"probe"', '"lone"').replace('"tau_re": 0.0', '"tau_re": 0.2') + "\n")
        with pytest.warns(UserWarning) as caught:
            assert main(["height", "--curves", str(path)]) == 0
        (w,) = caught
        assert str(w.message) == "record 'lone': embedding at re=0.2 has no conjugate partner"
        # the line that built the record, not the body of a generated __init__
        assert w.filename != "<string>" and Path(w.filename).name == "cli.py"
        assert "CurveRecord(" in linecache.getline(w.filename, w.lineno)
        assert capsys.readouterr().out.startswith("lone: h_F = ")

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
        # --curves is the one way to choose the file: the environment does not move the default
        bundled = default_fixture_path()
        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir()
        (fixture_dir / "curves.jsonl").write_text(VALID_LINE + "\n")
        monkeypatch.setenv("PTK_FIXTURES", str(fixture_dir))
        assert default_fixture_path() == bundled
        assert Path(bundled).parent.name == "fixtures"
        assert "probe" not in [r.label for r in ingest_curves(default_fixture_path())]


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

    # the C JSON scanner raises RecursionError, which is not a ValueError, and exit 1 means "an inequality failed"
    def test_deeply_nested_line_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "nested.jsonl"
        path.write_bytes(b"[" * 100_000 + b"\n" + _fixture_bytes())
        skipped = r"nested\.jsonl:1: skipped invalid record: maximum recursion depth"
        with pytest.warns(UserWarning, match=skipped):
            assert main(["height", "--curves", str(path)]) == 0
        assert capsys.readouterr().out.count("\n") == 5
        with pytest.warns(UserWarning, match=skipped):
            doc = _verify_json(tmp_path, path)
        assert len({r["inputs"]["label"] for r in doc["reports"] if "label" in r["inputs"]}) == 5

    @pytest.mark.parametrize(
        "content",
        # the last: malformed lines and an embedding the reduction refuses
        ["", "\n\n", NON_FINITE_LINES, '{"label": "broken"}\n[1, 2]\n' + VALID_LINE.replace("0.0, \"tau_im\": 1.25", "0.0, \"tau_im\": 1e-320")],
    )
    @pytest.mark.parametrize(
        "argv",
        [["height"], ["verify"], ["verify", "--suite", "heights"], ["verify", "--suite", "bounds"]],
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


def _fixture_bytes() -> bytes:
    with open(default_fixture_path(), "rb") as fh:
        return fh.read()


def _verify_json(tmp_path, curves=None) -> dict:
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "heights", "--json", str(out)]
    assert main(argv + (["--curves", str(curves)] if curves else [])) == 0
    return json.loads(out.read_bytes())


def _large_crlf_input(newlines=(b"\r\n",)) -> bytes:
    """Over 64 KiB of fixture lines, ended by ``newlines`` in turn.

    Line 8 is blank, line 9 invalid, line 10 an invalid line behind a UTF-8
    BOM, and line 11 a record with a multibyte label.
    """
    lines = _fixture_bytes().splitlines() * 80
    bom = b"\xef\xbb\xbf" + lines[0]
    multibyte = lines[0].replace(b'"11a1"', '"\u03c4-\u00fc"'.encode("utf-8"))
    lines[7:7] = [b"", b'{"label": "broken"}', bom, multibyte]
    data = b"".join(line + newlines[i % len(newlines)] for i, line in enumerate(lines))
    assert len(data) > 64 * 1024
    return data


class TestInputDigest:
    """``input_digests`` is the SHA-256 of the bytes that verify read, however they came."""

    def test_bundled_fixtures(self, tmp_path, capsys):
        doc = _verify_json(tmp_path)
        assert doc["input_digests"] == {"curves.jsonl": hashlib.sha256(_fixture_bytes()).hexdigest()}

    # mixed: no line ending in \r is followed by the blank line, which would make one \r\n ending of two
    @pytest.mark.parametrize(
        "newlines",
        [(b"\n",), (b"\r",), (b"\r\n",), (b"\n", b"\r", b"\r\n")],
        ids=["lf", "cr", "crlf", "mixed"],
    )
    def test_large_file_with_crlf_and_skipped_lines(self, tmp_path, capsys, newlines):
        data = _large_crlf_input(newlines)
        path = tmp_path / "large.jsonl"
        path.write_bytes(data)
        with pytest.warns(UserWarning) as caught:
            doc = _verify_json(tmp_path, path)
        skipped = [str(w.message).split(": skipped")[0] for w in caught if "skipped" in str(w.message)]
        assert skipped == [f"{path}:9", f"{path}:10"]
        assert "height_floor[\u03c4-\u00fc]" in [r["name"] for r in doc["reports"]]
        assert doc["input_digests"] == {"large.jsonl": hashlib.sha256(data).hexdigest()}

    def test_pipe_is_hashed_as_it_is_read(self, tmp_path):
        # a pipe cannot be read twice: hashing after ingestion would see no bytes
        data = _large_crlf_input()
        out = tmp_path / "report.json"
        src = str(Path(periodkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["verify", "--suite", "heights", "--curves", "/dev/stdin", "--json", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "periodkit.cli", *argv], input=data, env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_bytes())["input_digests"] == {"stdin": hashlib.sha256(data).hexdigest()}


class TestLineEndingsAndDecoding:
    """Both commands read through ``open(path, encoding="utf-8", newline="")``.

    Lines split at ``\\n``, ``\\r`` and ``\\r\\n`` as with universal newlines, and
    decoding is strict UTF-8.
    """

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_height_reads_every_record(self, tmp_path, capsys, newline):
        path = tmp_path / "curves.jsonl"
        path.write_bytes(_fixture_bytes().replace(b"\n", newline))
        assert main(["height", "--curves", str(path)]) == 0
        rows = capsys.readouterr().out
        assert main(["height"]) == 0
        assert rows == capsys.readouterr().out and rows.count("\n") == 5

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_verify_reads_every_record(self, tmp_path, capsys, newline):
        path = tmp_path / "curves.jsonl"
        path.write_bytes(_fixture_bytes().replace(b"\n", newline))
        (tmp_path / "bundled").mkdir()
        expected = _verify_json(tmp_path / "bundled")
        doc = _verify_json(tmp_path, path)
        assert doc["reports"] == expected["reports"]
        assert len({r["inputs"]["label"] for r in doc["reports"] if "label" in r["inputs"]}) == 5

    @pytest.mark.parametrize("argv", [["height"], ["verify", "--suite", "heights"]])
    def test_invalid_utf8_is_an_input_error(self, tmp_path, capsys, argv):
        data = _fixture_bytes()
        path = tmp_path / "curves.jsonl"
        path.write_bytes(data + b"\xff\xfe\n")
        assert main(argv + ["--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 'utf-8' codec can't decode byte 0xff in position {len(data)}: invalid start byte\n"


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


def _mixed_lines(n: int, seed: int) -> str:
    """A generated curve file: valid lines, unreduced ones, blank ones and malformed ones."""
    rng = random.Random(seed)
    lines = []
    for k in range(n):
        z, kind = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0)), rng.random()
        if kind < 0.3:  # off the fundamental domain: reduced with a warning
            z = -1.0 / (z + rng.randint(-3, 3))
        rec = {"label": f"m{k}", "degree": 1, "embeddings": [[z.real, z.imag]],
               "log_norm_minimal_discriminant": rng.uniform(0.0, 20.0)}
        if rng.random() < 0.5:
            rec["j_num"], rec["j_den"] = str(rng.randint(-10**9, 10**9)), rng.randint(1, 10**6)
        line = json.dumps(rec)
        if kind > 0.85:
            line = rng.choice([line[: len(line) // 2], line.replace('"degree": 1', '"degree": 2'),
                               line.replace('"label"', '"name"'), "", "NaN"])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _height_row(rec) -> str:
    hF = faltings_height_silverman(rec)
    hj = weil_height_rational_j(rec.j_rational) if rec.j_rational else float("nan")
    return f"{rec.label}: h_F = {hF:.12g}, h = {hF + H_SHIFT:.12g}, h(j) = {hj:.12g}\n"


class TestStreamedHeight:
    """`ptk height` prints each record as soon as it is parsed."""

    def test_output_and_warnings_equal_those_of_the_ingested_list(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text(_mixed_lines(400, seed=21))
        with warnings.catch_warnings(record=True) as listed:
            warnings.simplefilter("always")
            records = ingest_curves(str(path))
        with warnings.catch_warnings(record=True) as streamed:
            warnings.simplefilter("always")
            assert main(["height", "--curves", str(path)]) == 0
        assert capsys.readouterr().out == "".join(map(_height_row, records))
        messages = [str(w.message) for w in listed]
        assert [str(w.message) for w in streamed] == messages
        assert sum("skipped invalid record" in m for m in messages) > 10
        assert sum(") reduced to (" in m for m in messages) > 10

    def test_error_partway_prints_the_earlier_lines(self, tmp_path, capsys):
        top = VALID_LINE.replace("probe", "top").replace('"tau_im": 1.25', '"tau_im": 1.7e308')
        path = tmp_path / "overflow.jsonl"
        path.write_text("\n".join([VALID_LINE, VALID_LINE.replace("probe", "second"), top, VALID_LINE]) + "\n")
        first, second, _, _ = ingest_curves(str(path))
        assert main(["height", "--curves", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == _height_row(first) + _height_row(second)
        assert captured.err == "error: record 'top': stable height is not finite\n"

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        line = '{{"label": "c{0}", "degree": 1, "embeddings": [[0.0, {1}]], "log_norm_minimal_discriminant": 1.0}}\n'
        peaks = {}
        for n in (10, 1000, 10000):  # the first run fills the lazy caches and is not compared
            path = tmp_path / f"clean{n}.jsonl"
            path.write_text("".join(line.format(k, 1.0 + k % 100 / 10) for k in range(n)))
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(["height", "--curves", str(path)]) == 0
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert abs(peaks[10000] - peaks[1000]) < 2**20, peaks


class TestRunSuite:
    def test_serre_manifest_contains_threshold(self):
        manifest = run_suite("serre", [])
        assert manifest.all_satisfied
        values = [
            r.inputs.get("value")
            for _, r, _ in manifest.reports
            if r.name == "threshold_integer"
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
        assert all(suite == "heights" for suite, _, _ in manifest.reports)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_round_trip_builds_200_determinant_one_maps(self, seed, monkeypatch):
        built = []

        def recording(rng):
            built.append(draw(rng))
            return built[-1]

        draw = cli._random_unimodular
        monkeypatch.setattr(cli, "_random_unimodular", recording)
        rows = run_suite("lattice", [], seed=seed).reports
        ((_, report, satisfied),) = [row for row in rows if row[1].name == "siegel_round_trip_200"]
        assert len(built) == 200
        assert all(m.a * m.d - m.b * m.c == 1 for m in built)
        assert satisfied and report.satisfied and 0.0 < report.lhs < 1e-12

    def test_seed_does_not_reach_the_bounds_suite(self, bundled_records):
        # the quadratic-root fact is its proof's residual, so the suite draws nothing
        default, seeded = (run_suite("bounds", bundled_records, seed=seed) for seed in (0, 5))
        assert seeded.reports == default.reports
        assert "quadratic_root_fact" in [r.name for _, r, _ in default.reports]


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

    @pytest.mark.parametrize("bad", [
        BoundReport("nan_input", 0.0, 1.0, inputs={"x": math.nan}),
        BoundReport("nan_lhs", math.nan, 1.0),
        BoundReport("margin_overflow", -1e308, 1e308),
        BoundReport("inf_rhs", 0.0, math.inf),
        BoundReport("inf_input", 0.0, 1.0, inputs={"a": "x", "b": 3, "c": True, "d": 0.5, "x": -math.inf}),
    ])
    def test_non_finite_float_in_a_report_leaves_the_directory_as_it_was(self, bad, tmp_path):
        good = self.make_manifest().reports
        # far more than one write buffer of reports goes out before the bad one
        manifest = self.make_manifest()._replace(reports=good * 300 + [("serre", bad, False)] + good)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"an earlier report\n")
        for path in (new, old):
            with pytest.raises(ValueError, match="not JSON compliant") as err:
                emit_report(manifest, "json", str(path))
            assert bad.name in str(err.value)
        assert os.listdir(tmp_path) == ["old.json"]
        assert old.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize("existing", [True, False])
    def test_symlinked_path_keeps_its_link(self, existing, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        if existing:
            target.write_text("an earlier report\n")
        link.symlink_to(target)
        emit_report(self.make_manifest(), "json", str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text()) == self.make_manifest().to_dict()
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_a_symlink_loop_raises_and_stays(self, tmp_path):
        link = tmp_path / "loop.json"
        link.symlink_to(link)
        with pytest.raises(OSError):
            emit_report(self.make_manifest(), "json", str(link))
        assert link.is_symlink() and os.listdir(tmp_path) == ["loop.json"]

    def test_devnull_stays_a_device(self, capsys):
        assert main(["verify", "--suite", "serre", "--json", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_rewritten_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("an earlier report\n")
        path.chmod(0o640)
        emit_report(self.make_manifest(), "json", str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert json.loads(path.read_text()) == self.make_manifest().to_dict()

    def test_an_existing_file_is_rewritten_in_place(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("an earlier report\n")
        os.link(path, tmp_path / "other-name.json")
        inode = path.stat().st_ino
        bad = ("serre", BoundReport("nan_lhs", math.nan, 1.0), False)
        manifest = self.make_manifest()
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(manifest._replace(reports=manifest.reports + [bad]), "json", str(path))
        assert path.read_text() == "an earlier report\n"
        emit_report(manifest, "json", str(path))
        assert path.stat().st_ino == inode
        assert json.loads(path.read_text()) == manifest.to_dict()
        assert (tmp_path / "other-name.json").read_text() == path.read_text()

    def test_memory_does_not_grow_with_the_report_count(self, tmp_path):
        def manifest(n):
            rows = [
                ("modular", BoundReport(f"j_lower[c{k}:0]", k / 7.0, k / 3.0,
                                        inputs={"tau_re": 0.5, "tau_im": 1.0 + k / n, "tail": k * 1e-22}), k % 5 > 0)
                for k in range(n)
            ]
            return RunManifest(["modular"], rows, {"quad_points": 64, "seed": 0}, 1.0)

        n = 2000
        manifests = [manifest(n), manifest(n), manifest(4 * n)]  # the first run fills lazy caches
        peaks, sizes = {}, {}
        for fmt in ("json", "text"):
            for k, m in enumerate(manifests):
                out = tmp_path / f"{fmt}{k}"
                with open(tmp_path / "stdout", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    tracemalloc.start()
                    try:
                        emit_report(m, fmt, str(out) if fmt == "json" else None)
                        peaks[fmt, k] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                sizes[fmt, k] = os.path.getsize(out if fmt == "json" else tmp_path / "stdout")
            written = sizes[fmt, 2] - sizes[fmt, 1]
            assert written > 3 * n * 60, sizes
            assert peaks[fmt, 2] - peaks[fmt, 1] < written / 50, (fmt, peaks, sizes)

    def test_streamed_bytes_equal_the_joined_rendering(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        _perfbench_module("gen").generate(str(path), 200, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = ingest_curves(str(path))
        manifest = run_suite("all", records)
        assert len(records) > 190 and not manifest.all_satisfied  # FAIL rows are rendered too
        emit_report(manifest, "text")
        assert capsys.readouterr().out == _joined_rendering(manifest, "text")
        out = tmp_path / "report.json"
        emit_report(manifest, "json", str(out))
        assert out.read_bytes() == _joined_rendering(manifest, "json").encode()

    def test_each_verdict_is_computed_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        satisfied = BoundReport.satisfied
        monkeypatch.setattr(BoundReport, "satisfied", property(lambda r: calls.append(r.name) or satisfied.fget(r)))
        assert main(["verify", "--suite", "all", "--json", str(tmp_path / "r.json")]) == 0
        names = [r["name"] for r in json.loads((tmp_path / "r.json").read_text())["reports"]]
        assert len(names) > 700 and calls == names


def _joined_rendering(manifest, format: str) -> str:
    """The whole report as one string, joined as the emitter joined it before it streamed.

    The report layout is spelled out here, so a change to the emitter's shows.
    """
    reports = [
        {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin, "satisfied": r.satisfied,
         "inputs": dict(r.inputs or {}), "suite": suite}
        for suite, r, _ in manifest.reports
    ]
    if format == "json":
        encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
        body = ",\n".join("    " + encode(r) for r in reports)
        top = json.dumps(manifest._replace(reports=[]).to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        head, tail = top.split('\n  "reports": []', 1)
        return "".join([head, '\n  "reports": [\n', body, "\n  ]", tail]) if body else top
    lines = [f"suites: {', '.join(manifest.suites)}  (tool {manifest.tool_version})"]
    name_w = max((len(r["name"]) for r in reports), default=4)
    lines.append(f"{'check':<{name_w}}  {'lhs':>13} {'rhs':>13} {'margin':>13}  verdict")
    for r in reports:
        verdict = "PASS" if r["satisfied"] else "FAIL"
        lines.append(f"{r['name']:<{name_w}}  {r['lhs']:>13.6g} {r['rhs']:>13.6g} {r['margin']:>13.3g}  {verdict}")
    n_bad = sum(not r["satisfied"] for r in reports)
    wt = f"{manifest.wall_time:.2f}s" if manifest.wall_time is not None else "n/a"
    lines.append(f"{len(reports)} checks, {n_bad} failed, wall time {wt}")
    return "\n".join(lines) + "\n"


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
        extracted = _perfbench_module("check").reports_bytes(emitted).decode()
        assert json.loads(extracted.split(":", 1)[1].rstrip().rstrip(",")) == reports

    def test_parses_back_bit_identical(self, fixture_manifest, emitted):
        _assert_bit_identical(json.loads(emitted), fixture_manifest.to_dict())

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        src = str(Path(periodkit.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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

    # an empty path (an unset shell variable) names no file; it is not a request for the fixtures
    @pytest.mark.parametrize("argv", [["height"], ["verify", "--suite", "heights"]])
    def test_empty_curves_path_is_an_input_error(self, argv, capsys):
        assert main(argv + ["--curves", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"

    # neither the --tol flag nor the bound matrix-lemma alias of verify --suite bounds exists
    @pytest.mark.parametrize("argv", [["--tol", "1", "verify"], ["bound", "matrix-lemma"]])
    def test_tol_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ptk")

    # modular draws nothing from the seed, lattice and interpolation seed
    # random.Random with it; the curves file does not exist, so only a check at
    # parse time exits first
    @pytest.mark.parametrize("suite", ["modular", "lattice", "interpolation"])
    def test_negative_seed_is_a_usage_error(self, suite, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", "verify", "--suite", suite, "--curves", str(tmp_path / "nope.jsonl")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"^ptk: error: argument --seed: ", captured.err, re.M)

    # height and the lattice suite never read the flag, and verify --suite all
    # used to run two suites before theta refused it
    @pytest.mark.parametrize(
        "argv",
        [["height"], ["theta", "check"], ["verify", "--suite", "lattice"], ["verify", "--suite", "all"]],
    )
    @pytest.mark.parametrize("points", [8, 0, 15])
    def test_quad_points_below_16_is_a_usage_error(self, argv, points, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--quad-points", str(points), *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ptk: error: argument --quad-points: must be >= 16, not {points}\n" in captured.err

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

    def test_theta_check_tall_tau_reads_zero(self, capsys):
        # every midpoint of the m = 16 grid is at least 1/32 from an integer, so each term
        # of the primal sum underflows; the dual sum would need 7e5 alternating terms
        assert main(["--quad-points", "16", "theta", "check", "--tau-im", "1e12"]) == 1
        assert capsys.readouterr().out.startswith("l2 integral  = 0 (expect 1;")

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

    def test_bounds_suite_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(VALID_LINE + "\n")
        assert main(["verify", "--suite", "bounds", "--curves", str(path)]) == 0
        assert "0 failed" in capsys.readouterr().out
        # the bounds suite proves its inequalities for every valid record, so a
        # failing report is added to it for the exit code
        suite = cli.SUITES["bounds"]
        monkeypatch.setitem(
            cli.SUITES,
            "bounds",
            lambda records, seed, quad: suite(records, seed, quad)
            + [BoundReport(f"forced[{records[0].label}]", 2.0, 1.0)],
        )
        assert main(["verify", "--suite", "bounds", "--curves", str(path)]) == 1
        assert "forced[probe] 2 1 -1 FAIL" in " ".join(capsys.readouterr().out.split())

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
    def test_point_near_the_real_axis(self, command, re, im, capsys):
        # the reduction is exact: each prints the exact reduced point, rounded once
        assert main([command, re, im]) == 0
        out = capsys.readouterr().out
        x, y = (float(v) for v in oracles.exact_siegel_reduce(float(re), float(im)))
        if command == "reduce":
            assert out.splitlines()[0] == f"tau = {x:.17g} + {y:.17g}i"
        elif command == "rho":
            assert out == f"rho^-2 = {y:.17g}\n"
        else:
            delta, closed = (float(line.split(" = ")[1]) for line in out.splitlines())
            assert closed == math.sqrt(1.0 / y) / math.sqrt(2.0)
            assert delta == pytest.approx(closed, rel=1e-15)

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
    def test_record_near_the_real_axis(self, argv, tmp_path, capsys):
        # 0.1 + 1e-300 i reduces exactly to 0.5 + 7.7e266 i, and its record is ingested
        path = tmp_path / "axis.jsonl"
        path.write_text(VALID_LINE.replace('[{"tau_re": 0.0, "tau_im": 1.25}]', "[[0.1, 1e-300]]") + "\n")
        with pytest.warns(UserWarning, match=r"\(0.1, 1e-300\) reduced to \(0.4999999999999999, 7.703719777548943e\+266\)"):
            code = main(argv + ["--curves", str(path)])
        captured = capsys.readouterr()
        assert code in ((0,) if argv == ["height"] else (0, 1))
        assert captured.err == ""
        assert "probe" in captured.out

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


def _perfbench_module(name: str):
    """A module of the benchmark (its reference check or its curve generator), loaded read-only from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
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
    def test_summary_equals_committed_reference(self, workload, argv, tmp_path, capsys):
        check = _perfbench_module("check")
        with open(os.path.join(check.REFS, f"{workload}.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        out = tmp_path / "reports.json"
        assert main(argv + ["--json", str(out)]) == check.expected_rc(reference)
        summary = check.summarize(json.loads(out.read_text())["reports"])
        assert len(summary) == len(reference)
        for got, want in zip(summary, reference):
            assert got == want
