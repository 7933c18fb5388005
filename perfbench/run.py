"""Benchmark for jacsyz: seeded forms through the public library path.

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 34 --trace 0

Run from a checkout of the repository (the package is imported from its
``src`` directory).  One process, no extra threads, closed loop: each form
goes ``parse_poly`` -> ``analyze`` -> ``InvariantReport.to_json_text`` and the
next starts when it is done.  Every form is a polynomial the process has not
analysed before, so each timed sample is a cold analysis; engine caches are
never reset, so their growth shows in ``peak_rss_mb``.

End-to-end times are given at a nominal host speed (see NOMINAL_REF_S);
the raw seconds are printed beside them and stored in ``perfbench/out``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced forms, prints the per-layer medians over the traced
ones plus the tracing overhead, and writes spans and per-slice records to
``perfbench/out``.  Every report is checked (see workloads.py); its sha256
and, in traced runs, the exact counts are compared with earlier runs of the
same code and seed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import EXACT_COUNTS, Tracer, form_metrics, median_metrics
from workloads import DENSE_DEGREE, MODP_PRIME, VARS, WORKLOADS, dense_forms, smooth_certificate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# On a shared 2-vCPU host the speed of identical work swung by up to 1.6x
# within seconds and by 10-40% between runs minutes apart, more than any
# bound a benchmark can hold.  So every end-to-end time t of a run is
# reported as t * NOMINAL_REF_S / r, where r is the median time of a fixed
# pure-Python computation (reference_s) timed between the run's forms, and
# NOMINAL_REF_S is about r on an unloaded 2-vCPU Xeon VM.  A form that costs
# twice the work still reads twice as long; a host that runs everything
# slower for a while does not move the figure.  (Scaling each form by the
# reference next to it tracked worse: one 50 ms sample is noisy.)
NOMINAL_REF_S = 0.05
# A run stops by its form time at nominal host speed, so a seed runs the
# same forms however fast the host is.  Its raw form time is still capped at
# WALL_CAP times --seconds on a slow host.
WALL_CAP = 1.2
# Set-up is repeated in a fresh interpreter this often during the timed
# phase (between forms, outside their timing); setup_s is the median, since
# samples taken back to back would all share one swing of host speed.
SETUP_EVERY_S = 5.0
# peak_rss_mb is read once this many forms are done, so the memory figure
# does not grow just because a faster engine finishes more forms in a run.
MEM_FORMS = 5


class SetupError(RuntimeError):
    pass


class Inputs:
    """The forms of a run, drawn from the workload's stream as the run
    reaches them, so a faster engine still measures for the whole run."""

    def __init__(self, stream):
        self._stream = stream
        self.drawn = []

    def __getitem__(self, i: int):
        while len(self.drawn) <= i:
            self.drawn.append(next(self._stream))
        return self.drawn[i]


def set_up(workload, seed: int):
    """Import the package from ./src, draw the first input and warm the
    polynomial-independent tables.  Returns (package, forms, field, seconds)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    jacsyz = importlib.import_module("jacsyz")
    if Path(jacsyz.__file__).resolve().parent != (src / "jacsyz").resolve():
        raise SetupError(f"imported jacsyz from {jacsyz.__file__}, not from {src}")
    forms = Inputs(workload.forms(seed))
    forms[0]  # drawing the first input is part of set-up
    field = jacsyz.field_from_name(workload.field_mode)
    nvars, d = len(VARS), workload.degree
    top = jacsyz.top_degree(nvars, d)
    k_top = max(jacsyz.milnor.default_k_max(nvars, d), top + nvars + 1)
    for k in range(k_top + 1):
        jacsyz.monomial_basis(nvars, k)
        jacsyz.graded.basis_index(nvars, k)
    return jacsyz, forms, field, time.perf_counter() - t0


@functools.cache
def _reference_coeffs() -> dict:
    return next(dense_forms(random.Random(0))).coeffs


def reference_s() -> float:
    """Seconds for a fixed piece of work owned by the benchmark, not the
    engine, so an engine change cannot move it: three mod-p eliminations of
    one fixed 84 x 66 Jacobian slice (about what the engine's kernels do)."""
    coeffs = _reference_coeffs()
    t0 = time.perf_counter()
    for _ in range(3):
        smooth_certificate(coeffs, DENSE_DEGREE, MODP_PRIME)
    return time.perf_counter() - t0


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter (the import is cold only once per
    process); the caller waits for it to end."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def run_form(jacsyz, form, field, span):
    """One form, text in, JSON text out; `span` wraps each library call."""
    with span("form"):
        with span("poly.parse"):
            f = jacsyz.parse_poly(form.text, VARS)
        with span("analyzer.analyze"):
            report = jacsyz.analyze(f, field=field, var_names=VARS, source_text=form.text)
        with span("analyzer.json"):
            text = report.to_json_text()
    return f, report, text


def untraced(name):
    return nullcontext()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def compare_history(path: Path, digests: dict, counts: dict) -> list[str]:
    """Compare this run's report digests and exact counts, form by form,
    with every earlier run of the same code and seed; then merge them in."""
    problems = []
    old = json.loads(path.read_text()) if path.is_file() else {"digests": {}, "counts": {}}
    for i, digest in digests.items():
        seen = old["digests"].get(i)
        if seen is not None and seen != digest:
            problems.append(f"form {i}: report sha256 differs from an earlier run")
    for i, mine in counts.items():
        seen = old["counts"].get(i)
        if seen is None:
            continue
        for name in EXACT_COUNTS:
            if seen[name] != mine[name]:
                problems.append(
                    f"form {i}: {name} = {mine[name]}, an earlier run counted {seen[name]}"
                )
    old["digests"].update(digests)
    old["counts"].update(counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(old, sort_keys=True))
    os.replace(tmp, path)
    return problems


def run_forms(jacsyz, forms, field, seconds: float, tracer, probe):
    """The timed phase: forms one after the other until the next one would
    end past `seconds` of form time at nominal speed, or past WALL_CAP times
    that in raw form time (each by the median so far).  With a tracer,
    every odd form is traced.  Every SETUP_EVERY_S, `probe()` takes a set-up
    sample; its time, the drawing of inputs and the reference times taken
    between forms are left out of the phase.  Returns (times, outputs,
    errors, setups, refs, elapsed, peak_rss_kb); `times` holds the forms
    that finished, `elapsed` covers every form run."""
    min_forms = 2 if tracer else 1
    times: dict[int, float] = {}
    spent: list[float] = []
    refs: list[float] = []
    outputs: dict[int, tuple] = {}
    errors: dict[int, str] = {}
    setups: list[float] = []
    peak_rss_kb = None
    paused = 0.0
    start = end = time.perf_counter()
    for i in itertools.count():
        now = time.perf_counter()
        if len(spent) >= min_forms:
            typical = statistics.median(spent)
            scale = NOMINAL_REF_S / statistics.median(refs)
            if (sum(spent) + typical) * scale > seconds or (
                now + typical > start + paused + WALL_CAP * seconds
            ):
                break
        if now - start - paused >= len(setups) * SETUP_EVERY_S:
            setups.append(probe())
        form = forms[i]
        refs.append(reference_s())
        paused += time.perf_counter() - now
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            with tracer.tracing(i) if traced else nullcontext():
                f, report, text = run_form(jacsyz, form, field, tracer.span if traced else untraced)
        except Exception as exc:  # a failed form is data: counted, reported, run goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            end = time.perf_counter()
            spent.append(end - t0)
        times[i] = end - t0
        outputs[i] = (f.terms, report.milnor.top_degree, text)
        if i + 1 == MEM_FORMS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return times, outputs, errors, setups, refs, end - start - paused, peak_rss_kb


def layer_metrics(tracer, outputs, errors) -> dict[int, dict]:
    """Per-layer sums of every traced form that finished correctly."""
    spans: dict[int, list] = {}
    for s in tracer.spans:
        spans.setdefault(s.form, []).append(s)
    slices: dict[int, list] = {}
    for r in tracer.slices:
        slices.setdefault(r["form"], []).append(r)
    return {
        i: form_metrics(spans[i], slices.get(i, []), outputs[i][1])
        for i in sorted(spans)
        if i in outputs and i not in errors
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "jacsyz" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'jacsyz'}: run from a checkout", file=sys.stderr)
        return 2

    try:
        if args.setup_probe:
            print(repr(set_up(workload, args.seed)[3]))
            return 0
        jacsyz, forms, field, own_setup = set_up(workload, args.seed)
        tracer = Tracer(jacsyz) if args.trace else None
        times, outputs, errors, setups, refs, elapsed, peak_rss_kb = run_forms(
            jacsyz, forms, field, args.seconds, tracer, lambda: setup_probe(args)
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(own_setup)

    # --- correctness: workload oracle, report digests, exact counts ---------
    digests = {}
    for i, (terms, _, text) in outputs.items():
        problems = workload.check(forms[i], terms, json.loads(text))
        if problems:
            errors[i] = "; ".join(problems)
        digests[str(i)] = hashlib.sha256(text.encode()).hexdigest()
    per_form = layer_metrics(tracer, outputs, errors) if tracer else {}
    source_sha = tree_sha(ROOT / "src" / "jacsyz")
    code_key = hashlib.sha256((source_sha + tree_sha(ROOT / "perfbench")).encode()).hexdigest()
    OUT.mkdir(parents=True, exist_ok=True)
    mismatches = compare_history(
        OUT / f"history-{args.workload}-seed{args.seed}-{code_key[:16]}.json",
        digests,
        {str(i): {n: m[n] for n in EXACT_COUNTS} for i, m in per_form.items()},
    )

    attempted = len(set(times) | set(errors))
    failed = len(errors)
    ok_times = {i: t for i, t in times.items() if i not in errors}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "field": workload.field_mode,
        "prime": workload.prime,
        "git_sha": git_sha(),
        "source_sha256": source_sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for i in sorted(errors):
        print(f"FAILED form {i}: {errors[i]}  [{forms[i].text}]")
    for line in mismatches:
        print(f"MISMATCH {line}")

    if args.trace:
        untraced_times = [t for i, t in ok_times.items() if i % 2 == 0]
        if not per_form or not untraced_times:
            print("error: no traced and untraced form both finished", file=sys.stderr)
            return 1
        metrics = median_metrics(list(per_form.values()))
        metrics["trace.overhead_ratio"] = (
            statistics.median(times[i] for i in per_form) / statistics.median(untraced_times) - 1
        )
        units = {name: _unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]} (median of {len(per_form)} traced forms)")
        stem = OUT / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
        with open(f"{stem}.slices.jsonl", "w") as fh:
            for r in tracer.slices:
                fh.write(json.dumps(r) + "\n")
    else:
        if not ok_times:
            print("error: no form finished correctly", file=sys.stderr)
            return 1
        n = len(ok_times)
        ref = statistics.median(refs)
        scale = NOMINAL_REF_S / ref
        raw = {
            "form_s_p50": statistics.median(ok_times.values()),
            "forms_per_s": n / elapsed,
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "form_s_p50": raw["form_s_p50"] * scale,
            "forms_per_s": raw["forms_per_s"] / scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = {"form_s_p50": "s", "forms_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(
            f"host speed: reference {ref:.4f} s (median of {len(refs)}) against a nominal "
            f"{NOMINAL_REF_S} s; times below are scaled by {scale:.4f}"
        )
        print(
            f"form_s_p50 = {metrics['form_s_p50']:.4f} s (median of {n} forms; "
            f"raw {raw['form_s_p50']:.4f} s)"
        )
        print(
            f"forms_per_s = {metrics['forms_per_s']:.4f} 1/s ({n} forms; "
            f"raw {raw['forms_per_s']:.4f} 1/s over {elapsed:.2f} s)"
        )
        print(
            f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups; "
            f"raw {raw['setup_s']:.4f} s)"
        )
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB (after {min(n, MEM_FORMS)} forms)")
    print(f"fail_ratio = {failed / attempted:.4f} ({failed}/{attempted} forms)")
    print(
        f"report digests: {len(digests)} recorded, "
        f"{sum(1 for m in mismatches if 'sha256' in m)} differ from earlier runs"
    )

    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "provenance": provenance,
                "setup_samples": setups,
                "reference_samples": refs,
                "form_seconds": {str(i): t for i, t in times.items()},
                "errors": {str(i): e for i, e in errors.items()},
                "report_sha256": digests,
                "mismatches": mismatches,
            },
            indent=1,
            sort_keys=True,
        )
    )
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_cells"):
        return "cells"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
