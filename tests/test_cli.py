"""Command-line interface: exit codes, output routing, and file writers."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacsyz
import jacsyz.analyzer as analyzer_module
from jacsyz.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NON_ISOLATED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from jacsyz.corpus import CORPUS, CorpusEntry

THREE_CUSP = "x^2*y^2 + x^2*z^2 + y^2*z^2 - 2*x*y*z*(x + y + z)"


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_ok(self, capsys):
        assert run("analyze", "--poly", THREE_CUSP) == EXIT_OK
        out = capsys.readouterr().out
        assert "tau=6" in out
        assert "sat=4" in out

    def test_parse_error_is_usage(self, capsys):
        assert run("analyze", "--poly", "x^2 + ") == EXIT_USAGE
        assert run("analyze", "--poly", "2x") == EXIT_USAGE

    def test_inhomogeneous_is_usage(self):
        assert run("analyze", "--poly", "x^2 + y^3") == EXIT_USAGE

    def test_unknown_flag_is_usage(self):
        assert run("analyze", "--poly", "x^2", "--nope") == EXIT_USAGE

    def test_missing_subcommand_is_usage(self):
        assert run() == EXIT_USAGE

    def test_bad_field_is_usage(self):
        assert run("analyze", "--poly", THREE_CUSP, "--field", "mod:10") == EXIT_USAGE
        assert run("analyze", "--poly", THREE_CUSP, "--field", "float") == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            # the denominator 3 has no inverse mod 3
            ("analyze", "--poly", "1/3*x^2+y^2+z^2", "--field", "mod:3"),
            ("corpus", "--kmax", "-1"),
        ],
    )
    def test_bad_input_is_one_line_usage_error(self, argv, capsys):
        assert run(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("jacsyz: error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_unwritable_output_is_one_line_usage_error(self, flag, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.out"
        assert run("analyze", "--poly", "x^2*y^2+z^4", flag, str(target)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"jacsyz: error: cannot write {target}")
        assert err.count("\n") == 1
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "poly,lost",
        [
            # corpus entry binomial-1-2-3: d/dz of z^3 is 3*z^2
            ("x*y^2 + z^3", "df/dz"),
            ("x^3+y^3+z^3", "df/dx, df/dy, df/dz"),
        ],
    )
    def test_vanishing_partial_is_named(self, poly, lost, capsys):
        assert run("analyze", "--poly", poly, "--field", "mod:3") == EXIT_NON_ISOLATED
        warnings = [l for l in capsys.readouterr().out.splitlines() if "vanishing" in l]
        assert warnings == [
            "warning: partial derivatives vanishing over mod:3, since the "
            f"characteristic 3 divides every coefficient: {lost}"
        ]

    def test_non_isolated_exit(self, capsys):
        assert run("analyze", "--poly", "x^2*y^2") == EXIT_NON_ISOLATED
        assert "isolated" in capsys.readouterr().out

    def test_corpus_green(self, capsys):
        assert run("corpus", "--filter", "coordinate") == EXIT_OK
        out = capsys.readouterr().out
        assert "coordinate-triangle" in out

    def test_corpus_unknown_filter_is_usage(self, capsys):
        assert run("corpus", "--filter", "no-such-entry") == EXIT_USAGE

    def test_corpus_mismatch_exits_2(self, capsys, monkeypatch):
        entry = next(e for e in CORPUS if e.name == "binomial-1-2-3")
        wrong = dict(entry.expected)
        wrong["sat"] = 99
        tampered = CorpusEntry(entry.name, entry.poly, entry.var_names, wrong)
        monkeypatch.setattr(analyzer_module, "CORPUS", (tampered,))
        assert run("corpus") == EXIT_CHECK_FAILED
        assert "sat" in capsys.readouterr().out

    def test_corpus_mismatch_in_mod_mode_warns_only(self, capsys, monkeypatch):
        entry = next(e for e in CORPUS if e.name == "binomial-1-2-3")
        wrong = dict(entry.expected)
        wrong["sat"] = 99
        tampered = CorpusEntry(entry.name, entry.poly, entry.var_names, wrong)
        monkeypatch.setattr(analyzer_module, "CORPUS", (tampered,))
        assert run("corpus", "--field", "mod:1000003") == EXIT_OK
        assert "warning" in capsys.readouterr().out.lower()


class TestOutputs:
    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            run("analyze", "--poly", THREE_CUSP, "--json", str(target)) == EXIT_OK
        )
        doc = json.loads(target.read_text())
        assert doc["milnor"]["tau"] == 6
        assert doc["input"]["poly"] == THREE_CUSP
        # summary still goes to stdout
        assert "tau=6" in capsys.readouterr().out

    def test_json_to_stdout_suppresses_summary(self, capsys):
        assert run("analyze", "--poly", THREE_CUSP, "--json", "-") == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["milnor"]["tau"] == 6

    def test_csv_to_file(self, tmp_path):
        target = tmp_path / "table.csv"
        assert (
            run("analyze", "--poly", "x*y*z", "--csv", str(target)) == EXIT_OK
        )
        with open(target, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "degree",
            "milnor_dim",
            "smooth_dim",
            "ar_dim",
            "kr_dim",
            "er_dim",
            "hatJ_dim",
            "sd_dim",
            "defect",
        ]
        assert rows[1] == ["0", "1", "1", "0", "0", "0", "0", "0", "2"]
        assert rows[2] == ["1", "3", "3", "2", "0", "2", "0", "0", "0"]

    def test_both_streams_to_stdout_rejected(self, capsys):
        assert (
            run("analyze", "--poly", THREE_CUSP, "--json", "-", "--csv", "-")
            == EXIT_USAGE
        )

    def test_custom_variables(self, capsys):
        assert (
            run("analyze", "--poly", "a*b*c", "--vars", "a,b,c") == EXIT_OK
        )
        assert "tau=3" in capsys.readouterr().out

    def test_kmax_extends_tables(self, capsys):
        assert (
            run(
                "analyze", "--poly", THREE_CUSP, "--kmax", "12", "--json", "-"
            )
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["milnor"]["dims"]) == 13

    def test_ci_degrees_flag(self, capsys):
        assert (
            run(
                "analyze",
                "--poly",
                "x^2*y^2 - z^4",
                "--ci-degrees",
                "2,3",
                "--json",
                "-",
            )
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["ci"]["degrees"] == [2, 3]
        assert doc["ci"]["verdict"] == "CI-compatible"

    def test_bad_ci_degrees_is_usage(self):
        assert (
            run("analyze", "--poly", THREE_CUSP, "--ci-degrees", "2,x")
            == EXIT_USAGE
        )

    def test_modular_field_runs(self, capsys):
        assert (
            run("analyze", "--poly", THREE_CUSP, "--field", "mod:1000003")
            == EXIT_OK
        )
        assert "mod:1000003" in capsys.readouterr().out

    def test_random_prime_field_runs(self, capsys):
        assert (
            run("analyze", "--poly", "x*y*z", "--field", "mod:random") == EXIT_OK
        )
        assert "mod:" in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize("poly", [THREE_CUSP, "x^4 + y^4 + z^4"])
    def test_json_bytes_identical_across_processes(self, poly):
        # separate interpreters, so the second run is no cache hit, and
        # different hash seeds, so any set or dict order leaking into the
        # report shows up
        src = str(Path(jacsyz.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-m", "jacsyz.cli", "analyze", "--poly", poly, "--json", "-"],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["input"]["poly"] == poly


class TestCorpusOutput:
    def test_filter_runs_exactly_matching_entries(self, capsys):
        assert run("corpus", "--filter", "quartic") == EXIT_OK
        out = capsys.readouterr().out
        assert "three-cusp-quartic" in out
        assert "fermat-quartic" in out
        assert "binomial" not in out

    def test_summary_line(self, capsys):
        assert run("corpus") == EXIT_OK
        out = capsys.readouterr().out
        assert "8 entries" in out
