"""Tracing for the benchmark's traced run, done entirely from outside the
package: the public functions are replaced, for one form at a time, where
each importing module refers to them (``graded.rank``, ``milnor.slice_dim``,
``saturation.kernel``, ...), and restored afterwards.  The untraced run never
installs anything.

Spans (name, site, start, end, parent, form) and per-slice records (stage,
degree, rows, cols, rank, build_s, elim_s) stay in memory until the run
writes them out.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

STAGES = {
    "milnor.profile": "milnor",
    "syzygy.profile": "syzygy",
    "saturation.profile": "saturation",
}
REQUESTS = ("graded.slice_dim", "graded.ideal_slice")
ELIMS = ("linalg.rank", "linalg.rref")

# Counts that must repeat exactly across traced runs of the same code.
EXACT_COUNTS = (
    "milnor.slices",
    "graded.builds",
    "graded.build_cells",
    "graded.duplicate_elims",
    "linalg.rank_cells",
    "linalg.rref_cells",
    "saturation.kernel_calls",
)


def _cells(m) -> int:
    return m.nrows * m.ncols


def _degree(args, result) -> dict:
    return {"degree": args[1]}


def _build(args, result) -> dict:
    return {"degree": args[1], "rows": result.nrows, "cols": result.ncols}


def _rank(args, result) -> dict:
    return {"cells": _cells(args[0]), "rank": result}


def _rref(args, result) -> dict:
    return {"cells": _cells(args[0]), "rank": len(result[1])}


def _kernel(args, result) -> dict:
    return {"cells": _cells(args[0])}


class Span:
    __slots__ = ("id", "name", "site", "form", "parent", "start", "end", "attrs")

    def __init__(self, id, name, site, form, parent, start):
        self.id = id
        self.name = name
        self.site = site
        self.form = form
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "site": self.site,
            "form": self.form,
            "parent": self.parent.id if self.parent else None,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out.update(self.attrs)
        return out


class Tracer:
    def __init__(self, jacsyz):
        analyzer, graded, linalg = jacsyz.analyzer, jacsyz.graded, jacsyz.linalg
        milnor, saturation, syzygy = jacsyz.milnor, jacsyz.saturation, jacsyz.syzygy
        plan = [
            (analyzer, "milnor_profile", "milnor.profile", "analyzer", None),
            (analyzer, "syzygy_profile", "syzygy.profile", "analyzer", None),
            (analyzer, "saturation_profile", "saturation.profile", "analyzer", None),
            (milnor, "slice_dim", "graded.slice_dim", "milnor", _degree),
            (syzygy, "slice_dim", "graded.slice_dim", "syzygy", _degree),
            (saturation, "slice_dim", "graded.slice_dim", "saturation", _degree),
            (saturation, "ideal_slice", "graded.ideal_slice", "saturation", _degree),
            (analyzer, "ideal_slice", "graded.ideal_slice", "analyzer", _degree),
            (graded, "multiplication_matrix", "graded.build", "graded", _build),
            (graded, "rank", "linalg.rank", "graded", _rank),
            (syzygy, "rank", "linalg.rank", "syzygy", _rank),
            (linalg, "rref", "linalg.rref", "linalg", _rref),
            (linalg, "kernel", "linalg.kernel", "linalg", _kernel),
            (saturation, "kernel", "linalg.kernel", "saturation", _kernel),
            (linalg.Subspace, "intersect", "linalg.intersect", "saturation", None),
        ]
        self._patches = [
            (owner, attr, getattr(owner, attr), self._wrap(getattr(owner, attr), name, site, describe))
            for owner, attr, name, site, describe in plan
        ]
        self.spans: list[Span] = []
        self.slices: list[dict] = []
        self._stack: list[Span] = []
        self._form: int | None = None
        self._pending: tuple[dict, Span] | None = None

    # --- installation -------------------------------------------------------

    @contextmanager
    def tracing(self, form: int):
        """Install every wrapper for the duration of one form."""
        self._form = form
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._form = None
            self._pending = None
            self._stack.clear()

    def _wrap(self, fn, name, site, describe):
        def traced(*args, **kwargs):
            span = self._open(name, site)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, time.perf_counter(), None)
                raise
            end = time.perf_counter()
            self._close(span, end, describe(args, result) if describe else None)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls into the package."""
        span = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(span, time.perf_counter(), None)

    # --- span bookkeeping ---------------------------------------------------

    def _open(self, name, site) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, site, self._form, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, end: float, attrs: dict | None) -> None:
        span.end = end
        span.attrs = attrs
        self._stack.pop()
        if attrs is None:
            return
        if span.name == "graded.build":
            request = next((s for s in reversed(self._stack) if s.name in REQUESTS), None)
            stage = next(
                (STAGES[s.name] for s in reversed(self._stack) if s.name in STAGES),
                "checks",
            )
            if request is None:
                kind = "direct"
            else:
                kind = "rank" if request.name == "graded.slice_dim" else "space"
            record = {
                "form": span.form,
                "stage": stage,
                "kind": kind,
                "degree": attrs["degree"],
                "rows": attrs["rows"],
                "cols": attrs["cols"],
                "rank": None,
                "build_s": span.duration,
                "elim_s": None,
            }
            self.slices.append(record)
            self._pending = (record, request) if request else None
        elif span.name in ELIMS and self._pending and span.parent is self._pending[1]:
            record = self._pending[0]
            record["rank"] = attrs["rank"]
            record["elim_s"] = span.duration
            self._pending = None


def form_metrics(spans: list[Span], slices: list[dict], top_degree: int) -> dict[str, float]:
    """Per-layer sums for one traced form.  Times of linalg operations are
    self times: a kernel's own rref calls are charged to rref."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent.id] = child_time.get(s.parent.id, 0.0) + s.duration

    def total(name, site=None):
        return sum(s.duration for s in spans if s.name == name and site in (None, s.site))

    def self_time(name):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in spans if s.name == name)

    def calls(name, site=None):
        return sum(1 for s in spans if s.name == name and site in (None, s.site))

    def cells(name, site=None):
        return sum(
            s.attrs["cells"] for s in spans if s.name == name and site in (None, s.site)
        )

    milnor_slices = [r for r in slices if r["stage"] == "milnor"]
    tail = [r for r in milnor_slices if r["degree"] > top_degree + 1]
    ranked = {r["degree"] for r in milnor_slices if r["kind"] == "rank"}
    spaced = {r["degree"] for r in slices if r["kind"] == "space"}
    requests = sum(calls(name) for name in REQUESTS)
    analyze_s = total("analyzer.analyze")
    milnor_s = total("milnor.profile")
    tail_s = sum(r["build_s"] + (r["elim_s"] or 0.0) for r in tail)
    return {
        "poly.parse_s": total("poly.parse"),
        "milnor.profile_s": milnor_s,
        "milnor.slices": len(milnor_slices),
        "milnor.tail_s": tail_s,
        "milnor.tail_share": tail_s / milnor_s,
        "graded.build_s": total("graded.build"),
        "graded.builds": len(slices),
        "graded.build_cells": sum(r["rows"] * r["cols"] for r in slices),
        "graded.slice_requests": requests,
        "graded.reuse_ratio": 1 - len(slices) / requests,
        "graded.duplicate_elims": len(ranked & spaced),
        "linalg.rank_s": self_time("linalg.rank"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.rank_cells": cells("linalg.rank"),
        "linalg.rref_s": self_time("linalg.rref"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_cells": cells("linalg.rref"),
        "linalg.kernel_s": self_time("linalg.kernel"),
        "linalg.kernel_calls": calls("linalg.kernel"),
        "syzygy.profile_s": total("syzygy.profile"),
        "syzygy.kr_cells": cells("linalg.rank", "syzygy"),
        "saturation.profile_s": total("saturation.profile"),
        "saturation.kernel_calls": calls("linalg.kernel", "saturation"),
        "saturation.intersect_calls": calls("linalg.intersect"),
        "analyzer.checks_s": analyze_s
        - sum(total(name, "analyzer") for name in STAGES),
        "analyzer.json_s": total("analyzer.json"),
    }


def median_metrics(per_form: list[dict[str, float]]) -> dict[str, float]:
    return {
        name: statistics.median(m[name] for m in per_form) for name in per_form[0]
    }
