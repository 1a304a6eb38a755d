import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from periodkit.heights import (
    H_SHIFT,
    CurveRecord,
    faltings_height_silverman,
    hetj_report,
    isogeny_height_report,
    product_additivity_report,
    subvariety_height_report,
    weil_height_rational_j,
)
from periodkit.cli import run_suite
from periodkit.lattice import SiegelTau


class TestWeilHeight:
    def test_integer_j(self):
        assert weil_height_rational_j((1728, 1)) == pytest.approx(math.log(1728.0))

    def test_zero_j(self):
        assert weil_height_rational_j((0, 1)) == 0.0

    def test_fraction_with_large_numerator(self):
        got = weil_height_rational_j((-122023936, 161051))
        assert got == pytest.approx(math.log(122023936.0), rel=1e-15)

    def test_unreduced_fraction_is_reduced_first(self):
        assert weil_height_rational_j((200, 100)) == pytest.approx(math.log(2.0))

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9).filter(bool))
    @settings(max_examples=60)
    def test_matches_fraction_arithmetic(self, num, den):
        f = Fraction(num, den)
        expected = math.log(max(abs(f.numerator), f.denominator)) if f else 0.0
        assert weil_height_rational_j((num, den)) == pytest.approx(expected, abs=1e-13)

    def test_zero_denominator_is_a_division_error(self):
        with pytest.raises(ZeroDivisionError):
            weil_height_rational_j((5, 0))


def one_curve(label, re, im, disc, j=None, degree=1):
    embeddings = tuple(SiegelTau(re, im) for _ in range(degree))
    return CurveRecord(
        label=label,
        degree=degree,
        embeddings=embeddings,
        log_norm_minimal_discriminant=disc,
        j_rational=j,
    )


class TestFaltingsHeight:
    def test_synthetic_square_lattice(self):
        rec = one_curve("sq", 0.0, 1.0, 0.0)
        got = faltings_height_silverman(rec)
        assert type(got) is float
        assert got == pytest.approx(-1.3105329259115095, rel=1e-12)

    def test_bundled_fixtures_against_extended_precision(self, record_by_label):
        for label, expected in (
            ("11a1", -0.30800984111840306),
            ("37a1", -0.99654220763736715),
        ):
            rec = record_by_label[label]
            got = faltings_height_silverman(rec)
            assert got == pytest.approx(expected, rel=1e-12)
            orc = oracles.mp_faltings(
                rec.degree,
                [(t.re, t.im) for t in rec.embeddings],
                rec.log_norm_minimal_discriminant,
            )
            assert got == pytest.approx(float(orc), abs=1e-12)

    def test_base_change_invariance(self, record_by_label):
        h1 = faltings_height_silverman(record_by_label["11a1"])
        h2 = faltings_height_silverman(record_by_label["11a1-quad"])
        assert h1 == pytest.approx(h2, abs=1e-14)

    def test_invariant_under_embedding_order_and_conjugation(self):
        a = CurveRecord(
            "pair",
            2,
            (SiegelTau(0.3, 1.2), SiegelTau(-0.3, 1.2)),
            5.0,
            None,
        )
        b = CurveRecord(
            "pair-swapped",
            2,
            (SiegelTau(-0.3, 1.2), SiegelTau(0.3, 1.2)),
            5.0,
            None,
        )
        ha = faltings_height_silverman(a)
        hb = faltings_height_silverman(b)
        assert ha == pytest.approx(hb, abs=1e-15)

    def test_embedding_count_must_match_degree(self):
        with pytest.raises(ValueError):
            CurveRecord("bad", 2, (SiegelTau(0.0, 1.0),), 0.0, None)

    def test_negative_discriminant_rejected(self):
        with pytest.raises(ValueError):
            CurveRecord("bad", 1, (SiegelTau(0.0, 1.0),), -1.0, None)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_discriminant_rejected(self, value):
        with pytest.raises(ValueError):
            CurveRecord("bad", 1, (SiegelTau(0.0, 1.0),), value, None)


class TestConversions:
    def test_shift_sizes_are_exact(self):
        assert H_SHIFT == 0.5 * math.log(math.pi)


class TestInequalityReports:
    def test_degree_one_isogeny_preserves_height(self):
        report = isogeny_height_report(0.7, 1.0, h_target=0.7)
        assert report.satisfied
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-2, 2), st.integers(1, 10**6))
    @settings(max_examples=60)
    def test_isogeny_shift_window(self, h, deg):
        target = h + 0.49 * math.log(deg)
        assert isogeny_height_report(h, float(deg), h_target=target).satisfied

    def test_subvariety_report(self):
        report = subvariety_height_report(0.0, 1, 1.0)
        assert report.satisfied
        assert report.rhs == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-15)

    def test_product_additivity_hook(self):
        ok = product_additivity_report(0.25, -0.5, -0.25)
        assert ok.satisfied
        bad = product_additivity_report(0.25, -0.5, 0.25)
        assert not bad.satisfied

    def test_hetj_margin_positive_on_fixtures(self, bundled_records):
        for rec in bundled_records:
            if rec.j_rational is None:
                continue
            report = hetj_report(rec, faltings_height_silverman(rec))
            assert report.satisfied, str(report)
            assert report.margin > 0

    def test_heights_suite_report_names(self, bundled_records):
        manifest = run_suite("heights", bundled_records)
        per_record = []
        for label in ("11a1", "37a1", "11a1-quad", "square", "hex-corner"):
            per_record += [f"height_floor[{label}]", "height_vs_j_height"]
        assert [r["name"] for r in manifest.reports] == per_record + [
            "isogeny_height_shift",
            "isogeny_height_shift",
            "subvariety_height",
            "product_additivity",
            "orthogonal_split_degree",
        ]
        assert manifest.all_satisfied

    def test_heights_suite_evaluates_each_height_once(self, bundled_records, monkeypatch):
        from periodkit import cli, heights

        calls = []

        def counted(record):
            calls.append(record.label)
            return faltings_height_silverman(record)

        monkeypatch.setattr(heights, "faltings_height_silverman", counted)
        monkeypatch.setattr(cli, "faltings_height_silverman", counted)
        run_suite("heights", bundled_records)
        assert calls == [rec.label for rec in bundled_records]
