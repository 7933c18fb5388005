"""Command-line front end.

Two subcommands: `analyze` runs the full pipeline on one polynomial and can
dump the report as JSON and/or CSV; `corpus` re-runs the built-in examples
against their golden values.

Exit codes: 0 all checks pass; 1 usage or input parse error, or an output
file that cannot be written; 2 an identity or golden comparison failed; 3
the Milnor dimensions never settled, so the input is not known to have
isolated singularities (a partial report is still produced).
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from .analyzer import InvariantReport, analyze, run_corpus
from .fields import field_from_name
from .poly import PolyError, parse_poly

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NON_ISOLATED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # failed identities, so usage problems must exit 1 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jacsyz",
        description="Exact degree-wise invariants of Jacobian ideals of "
        "projective hypersurfaces with isolated singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="analyze one homogeneous polynomial",
        description="Run the full invariant pipeline on one polynomial.",
    )
    pa.add_argument("--poly", required=True, help="polynomial text, e.g. 'x^2*y^2 + z^4'")
    pa.add_argument(
        "--vars",
        default="x,y,z",
        help="comma-separated variable names (default: x,y,z)",
    )
    pa.add_argument(
        "--field",
        default="exact",
        help="'exact' (default), 'mod:<prime>', or 'mod:random'",
    )
    pa.add_argument("--kmax", type=int, default=None, help="reporting degree range 0..kmax")
    pa.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the JSON report to PATH ('-' for stdout)",
    )
    pa.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="write the per-degree CSV table to PATH ('-' for stdout)",
    )
    pa.add_argument(
        "--ci-degrees",
        type=_comma_ints,
        default=None,
        metavar="A,B,...",
        help="candidate complete-intersection degrees to test (required for n > 2)",
    )

    pc = sub.add_parser(
        "corpus",
        help="run the built-in example corpus against golden values",
        description="Analyze the built-in examples and compare against the golden table.",
    )
    pc.add_argument("--filter", default=None, help="only run entries whose name contains this")
    pc.add_argument("--field", default="exact", help="'exact', 'mod:<prime>', or 'mod:random'")
    pc.add_argument("--kmax", type=int, default=None, help="reporting degree range 0..kmax")
    return parser


def _summary_lines(report: InvariantReport) -> list[str]:
    m = report.milnor
    lines = [
        f"input: {report.poly_text}  "
        f"(vars {','.join(report.var_names)}; n={m.n}, d={m.d}; field {report.field_name})"
    ]
    if not m.isolated:
        lines.append("isolatedness heuristic FAILED: partial report only")
        lines.append("milnor dims: " + ",".join(str(v) for v in m.dims[: m.k_max + 1]))
        lines.extend(f"warning: {w}" for w in report.warnings)
        return lines
    sat = report.saturation
    syz = report.syzygy
    head = [
        f"T={m.top_degree}",
        f"tau={m.tau}",
        f"ct={'-' if m.ct is None else m.ct}",
        f"st={m.st}",
        f"mdr={'-' if syz.mdr is None else syz.mdr}",
        f"sat={sat.sat}",
        f"a={'-' if sat.a_invariant is None else sat.a_invariant}",
        f"reg={sat.regularity}",
    ]
    lines.append("  ".join(head))
    lines.append("milnor dims: " + ",".join(str(v) for v in m.dims[: m.k_max + 1]))
    passed = sum(1 for c in report.checks if c.passed is True)
    failed = [c for c in report.checks if c.passed is False]
    skipped = sum(1 for c in report.checks if c.passed is None)
    lines.append(f"checks: {passed} passed, {len(failed)} failed, {skipped} n/a")
    for c in failed:
        lines.append(f"  FAILED {c.name}: lhs={c.lhs} rhs={c.rhs}")
    if report.theorem:
        bad = [t for t in report.theorem if not t.passed]
        lines.append(f"duality table: {len(report.theorem)} rows, {len(bad)} failed")
        for t in bad:
            lines.append(f"  FAILED k={t.k}: {t.lhs} != {t.smooth} + {t.defect}")
    if report.ci:
        deg = (
            "(" + ",".join(str(a) for a in report.ci.degrees) + ") "
            if report.ci.degrees
            else ""
        )
        lines.append(f"ci: {deg}{report.ci.verdict}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return lines


def _write_json(report: InvariantReport, path: str) -> None:
    text = report.to_json_text()
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_csv(report: InvariantReport, path: str) -> None:
    rows = report.csv_rows()
    if path == "-":
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)


def _cmd_analyze(args) -> int:
    if args.json == "-" and args.csv == "-":
        print("jacsyz: error: only one of --json/--csv may write to stdout", file=sys.stderr)
        return EXIT_USAGE
    var_names = [v.strip() for v in args.vars.split(",")]
    try:
        field = field_from_name(args.field)
        f = parse_poly(args.poly, var_names)
        report = analyze(
            f,
            field=field,
            k_max=args.kmax,
            var_names=var_names,
            source_text=args.poly,
            ci_degrees=args.ci_degrees,
        )
    except (PolyError, ValueError) as exc:
        print(f"jacsyz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for path, write in ((args.json, _write_json), (args.csv, _write_csv)):
        if not path:
            continue
        try:
            write(report, path)
        except OSError as exc:
            print(f"jacsyz: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.json != "-" and args.csv != "-":
        for line in _summary_lines(report):
            print(line)
    if not report.isolated:
        return EXIT_NON_ISOLATED
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_corpus(args) -> int:
    try:
        field = field_from_name(args.field)
        summary = run_corpus(args.filter, field=field, k_max=args.kmax)
    except ValueError as exc:
        print(f"jacsyz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not summary.results:
        print(f"jacsyz: error: no corpus entry matches {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    exact = field.characteristic == 0
    for result in summary.results:
        marker = "ok" if result.ok else ("mismatch" if exact else "mismatch (mod-p run)")
        print(f"{result.entry.name:26s} {marker}")
        for line in result.mismatches:
            print(f"    {line}")
    bad = sum(1 for r in summary.results if not r.ok)
    print(f"{len(summary.results)} entries, {bad} with mismatches, field {summary.field_name}")
    if bad and not exact:
        print("mod-p mismatches are reported as warnings (possible unlucky prime)")
        return EXIT_OK
    return EXIT_OK if bad == 0 else EXIT_CHECK_FAILED


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits itself on usage problems and on --help; fold that
        # into the return-code contract instead of letting it propagate
        return EXIT_OK if err.code in (None, 0) else EXIT_USAGE
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_corpus(args)


if __name__ == "__main__":
    sys.exit(main())
