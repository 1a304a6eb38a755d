import json
import math
import os
import warnings

import pytest

from periodkit.cli import (
    RunManifest,
    _render_json,
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
        with pytest.warns(UserWarning, match="reduced"):
            records = ingest_curves(str(path))
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


class TestEmitReport:
    def make_manifest(self):
        return run_suite("serre", [])

    def test_json_round_trip_is_lossless(self, tmp_path):
        manifest = self.make_manifest()
        path = tmp_path / "report.json"
        emit_report(manifest, "json", str(path))
        loaded = RunManifest.from_dict(json.loads(path.read_text()))
        assert loaded.to_dict() == manifest.to_dict()

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

    def test_float_rendering_17_significant_digits(self):
        rendered = _render_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in rendered

    def test_sorted_keys(self):
        rendered = _render_json({"b": 1, "a": 2})
        assert rendered.index('"a"') < rendered.index('"b"')

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError):
            emit_report(self.make_manifest(), "json", "/nonexistent-dir/x.json")


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

    def test_theta_check_subcommand(self, capsys):
        assert main(["theta", "check", "--tau-im", "1.0"]) == 0
        assert "expect 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--tau-im", "inf"), ("--tau-re", "nan")])
    def test_theta_check_rejects_non_finite_tau(self, flag, value, capsys):
        assert main(["theta", "check", flag, value]) == 2
        assert "error: matrix entries must be finite" in capsys.readouterr().err

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

    def test_serre_threshold_subcommand(self, capsys):
        assert main(["serre", "threshold"]) == 0
        assert "p_star = 3094027" in capsys.readouterr().out

    def test_verify_writes_json_when_asked(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["verify", "--suite", "serre", "--json", str(out)]) == 0
        manifest = RunManifest.from_dict(json.loads(out.read_text()))
        assert manifest.all_satisfied
