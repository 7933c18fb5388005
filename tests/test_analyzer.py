"""Report assembly: identity checks, the duality table, CI compatibility,
JSON/CSV serialization, and the golden-table corpus runner."""

import dataclasses
import json
from fractions import Fraction

import pytest

import jacsyz.analyzer as analyzer_module
from jacsyz.analyzer import CSV_HEADER, analyze, run_corpus
from jacsyz.corpus import CORPUS, CorpusEntry
from jacsyz.fields import PrimeField
from jacsyz.poly import parse_poly

TOP_KEYS = [
    "input",
    "milnor",
    "syzygy",
    "saturation",
    "checks",
    "theorem",
    "ci",
    "conjectures",
    "warnings",
]


class TestChecks:
    def test_all_checks_pass_on_corpus(self, corpus_polys):
        for name, f in corpus_polys.items():
            report = analyze(f)
            assert report.ok, name
            failed = [c.name for c in report.checks if c.passed is False]
            assert failed == [], name

    def test_expected_check_names_present(self, three_cusp):
        report = analyze(three_cusp)
        names = {c.name for c in report.checks}
        assert {
            "euler_identity",
            "ct_from_mdr",
            "er_matches_milnor_difference",
            "a_invariant_closed_form",
            "regularity_closed_form",
            "defects_nonincreasing",
            "ideal_inside_saturation",
        } <= names

    def test_smooth_input_marks_ct_checks_inapplicable(self, fermat_quartic):
        report = analyze(fermat_quartic)
        by_name = {c.name: c for c in report.checks}
        assert by_name["ct_from_mdr"].passed is None
        assert by_name["a_invariant_closed_form"].passed is None
        assert by_name["smooth_relations_all_koszul"].passed is True
        assert report.ok

    def test_conjecture_rows_recorded(self, three_cusp):
        report = analyze(three_cusp)
        names = {c.name for c in report.conjectures}
        assert "sd_unimodality" in names
        assert "threshold_gap" in names
        assert all(c.holds for c in report.conjectures)


class TestTheoremTable:
    def test_binomial_224_rows(self, corpus_polys):
        report = analyze(corpus_polys["binomial-2-2-4"])
        rows = [(r.k, r.lhs, r.smooth, r.defect) for r in report.theorem]
        assert rows == [(0, 6, 1, 5), (1, 6, 3, 3), (2, 7, 6, 1), (3, 7, 7, 0)]
        assert all(r.passed for r in report.theorem)

    def test_row_count_is_n_times_d_minus_2(self, corpus_polys):
        for name, f in corpus_polys.items():
            report = analyze(f)
            if report.milnor.smooth_input or not report.isolated:
                assert report.theorem == ()
            else:
                n, d = report.milnor.n, report.milnor.d
                assert len(report.theorem) == n * (d - 2), name

    def test_three_cusp_rows(self, three_cusp):
        report = analyze(three_cusp)
        rows = [(r.k, r.lhs, r.smooth, r.defect) for r in report.theorem]
        assert rows == [(0, 6, 1, 5), (1, 6, 3, 3), (2, 6, 6, 0), (3, 7, 7, 0)]


class TestCIAnalysis:
    def test_verdicts(self, corpus_polys):
        expected = {
            "line-plus-fermat-cubic": ((1, 3), "CI-compatible"),
            "binomial-2-2-4": ((2, 3), "CI-compatible"),
            "binomial-1-2-3": ((1, 2), "CI-compatible"),
            "binomial-2-3-5": ((3, 4), "CI-compatible"),
            "one-node-cubic": ((1, 1), "CI-compatible"),
        }
        for name, (degrees, verdict) in expected.items():
            report = analyze(corpus_polys[name])
            assert report.ci is not None, name
            assert report.ci.degrees == degrees, name
            assert report.ci.verdict == verdict, name
            assert report.ci.series_identity is True, name
            assert report.ci.saturation_match is True, name

    def test_no_integer_solution(self, three_cusp, coordinate_triangle):
        for f in (three_cusp, coordinate_triangle):
            report = analyze(f)
            assert report.ci is not None
            assert report.ci.degrees is None
            assert "no integer solution" in report.ci.verdict

    def test_smooth_input_has_no_ci_block(self, fermat_quartic):
        assert analyze(fermat_quartic).ci is None

    def test_user_supplied_degrees(self, corpus_polys):
        f = corpus_polys["binomial-2-2-4"]
        good = analyze(f, ci_degrees=(2, 3))
        assert good.ci.verdict == "CI-compatible"
        bad = analyze(f, ci_degrees=(1, 6))
        assert bad.ci.verdict == "not CI-compatible"

    def test_user_degrees_wrong_arity_rejected(self, three_cusp):
        with pytest.raises(ValueError):
            analyze(three_cusp, ci_degrees=(1, 2, 3))

    def test_targets_recorded(self, corpus_polys):
        report = analyze(corpus_polys["binomial-2-2-4"])
        # sum target T - ct + n, product target τ
        assert report.ci.sum_target == 6 - 3 + 2
        assert report.ci.product_target == 6


class TestJson:
    def test_top_level_key_order(self, three_cusp):
        doc = analyze(three_cusp).to_json_dict()
        assert list(doc.keys()) == TOP_KEYS

    def test_byte_determinism(self, three_cusp):
        a = analyze(three_cusp).to_json_text()
        b = analyze(three_cusp).to_json_text()
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)  # well-formed

    def test_input_block(self, three_cusp):
        doc = analyze(three_cusp).to_json_dict()
        assert doc["input"]["n"] == 2
        assert doc["input"]["d"] == 4
        assert doc["input"]["field"] == "exact"
        assert doc["input"]["vars"] == ["x0", "x1", "x2"]

    def test_milnor_block_lengths(self, three_cusp):
        doc = analyze(three_cusp, k_max=9).to_json_dict()
        m = doc["milnor"]
        assert len(m["dims"]) == 10
        assert len(m["smooth_dims"]) == 10
        assert m["dims"][:7] == [1, 3, 6, 7, 6, 6, 6]
        assert m["isolated"] is True
        assert m["isolated_method"] == "gotzmann-persistence"

    def test_check_rows_shape(self, three_cusp):
        doc = analyze(three_cusp).to_json_dict()
        for row in doc["checks"]:
            assert set(row.keys()) == {"name", "lhs", "rhs", "pass"}

    def test_smooth_report_blocks(self, fermat_quartic):
        doc = analyze(fermat_quartic).to_json_dict()
        assert doc["ci"] is None
        assert doc["theorem"] == []
        assert doc["saturation"]["a_invariant"] is None
        assert any("smooth" in w for w in doc["warnings"])

    def test_non_isolated_partial_report(self, non_isolated):
        report = analyze(non_isolated)
        assert not report.isolated
        doc = report.to_json_dict()
        # the blocks keep their schema but carry no data
        assert doc["syzygy"] == {"mdr": None, "ar": [], "kr": [], "er": []}
        assert doc["saturation"]["sat"] is None
        assert doc["saturation"]["hatJ_dims"] == []
        assert doc["milnor"]["isolated"] is False
        assert any("isolated" in w for w in doc["warnings"])

    def test_mod_field_recorded_with_warning(self, three_cusp):
        report = analyze(three_cusp, field=PrimeField(1000003))
        assert report.field_name == "mod:1000003"
        assert any("mod" in w for w in report.warnings)


class TestCsv:
    def test_header(self):
        assert CSV_HEADER == (
            "degree",
            "milnor_dim",
            "smooth_dim",
            "ar_dim",
            "kr_dim",
            "er_dim",
            "hatJ_dim",
            "sd_dim",
            "defect",
        )

    def test_row_shape_and_padding(self, three_cusp):
        report = analyze(three_cusp)
        rows = report.csv_rows()
        # header plus one row per reported degree
        assert len(rows) == report.milnor.k_max + 2
        assert all(len(r) == len(CSV_HEADER) for r in rows)
        # syzygy columns go blank past their reporting range
        m_max = report.syzygy.m_max
        assert rows[1 + m_max + 1][3] == ""

    def test_first_rows_coordinate_triangle(self, coordinate_triangle):
        rows = analyze(coordinate_triangle).csv_rows()
        assert rows[0] == list(CSV_HEADER)
        assert rows[1] == [0, 1, 1, 0, 0, 0, 0, 0, 2]
        assert rows[2] == [1, 3, 3, 2, 0, 2, 0, 0, 0]
        assert rows[3] == [2, 3, 3, 6, 3, 3, 3, 0, 0]

    def test_non_isolated_blank_columns(self, non_isolated):
        rows = analyze(non_isolated).csv_rows()
        assert all(r[3] == "" and r[6] == "" for r in rows[1:])


class TestCorpusRunner:
    def test_all_entries_green_exact(self):
        summary = run_corpus()
        assert len(summary.results) == len(CORPUS) == 8
        assert summary.ok
        for r in summary.results:
            assert r.mismatches == (), r.entry.name

    def test_filter_by_substring(self):
        summary = run_corpus("quartic")
        assert sorted(r.entry.name for r in summary.results) == [
            "fermat-quartic",
            "three-cusp-quartic",
        ]

    def test_modular_run_green(self):
        summary = run_corpus(field=PrimeField(1000003))
        assert summary.ok
        assert summary.field_name == "mod:1000003"

    def test_tampered_golden_is_caught(self, monkeypatch):
        entry = next(e for e in CORPUS if e.name == "one-node-cubic")
        wrong = dict(entry.expected)
        wrong["tau"] = 99
        tampered = CorpusEntry(entry.name, entry.poly, entry.var_names, wrong)
        monkeypatch.setattr(analyzer_module, "CORPUS", (tampered,))
        summary = run_corpus()
        assert not summary.ok
        assert any("tau" in m for m in summary.results[0].mismatches)

    def test_unknown_golden_key_is_reported(self, monkeypatch):
        entry = CORPUS[0]
        wrong = dict(entry.expected)
        wrong["no_such_invariant"] = 1
        tampered = CorpusEntry(entry.name, entry.poly, entry.var_names, wrong)
        monkeypatch.setattr(analyzer_module, "CORPUS", (tampered,))
        summary = run_corpus()
        assert not summary.ok


class TestReportMisc:
    def test_default_variable_names(self):
        f = parse_poly("x^2*y^2 - z^4", ("x", "y", "z"))
        report = analyze(f)
        assert report.var_names == ("x0", "x1", "x2")

    def test_explicit_names_and_source_text(self):
        f = parse_poly("x^2*y^2 - z^4", ("x", "y", "z"))
        report = analyze(
            f, var_names=("x", "y", "z"), source_text="x^2*y^2 - z^4"
        )
        assert report.poly_text == "x^2*y^2 - z^4"
        doc = report.to_json_dict()
        assert doc["input"]["vars"] == ["x", "y", "z"]

    def test_ok_is_false_when_a_check_fails(self, three_cusp):
        report = analyze(three_cusp)
        broken_row = dataclasses.replace(report.checks[0], passed=False)
        broken = dataclasses.replace(
            report, checks=(broken_row,) + report.checks[1:]
        )
        assert not broken.ok

    @pytest.mark.parametrize("field", [None, PrimeField(1000003)], ids=["exact", "mod"])
    def test_rescaled_form_gives_the_same_report(self, three_cusp, field):
        # J(c·f) = J(f): only the echoed input text may differ
        kwargs = {} if field is None else {"field": field}
        plain = analyze(three_cusp, **kwargs).to_json_dict()
        scaled = analyze(three_cusp.scaled(Fraction(3, 4)), **kwargs).to_json_dict()
        assert scaled["input"].pop("poly") != plain["input"].pop("poly")
        assert scaled == plain
