"""Orchestration: run every engine stage on one polynomial, verify the
cross-route identities, and package the result for JSON/CSV output.

Identity failures are data here, never exceptions — the report always comes
out complete so a failure can be diagnosed from it, and the CLI turns failed
rows into its exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt, prod
from typing import Any, Sequence

from .corpus import CORPUS, CorpusEntry
from .fields import QQ
from .graded import ideal_slice, space_dim
from .milnor import MilnorProfile, milnor_profile, quotient_series_coeff
from .poly import HomogPoly, euler_mismatches, parse_poly, partial_derivatives
from .saturation import (
    SaturationProfile,
    agreement_bound,
    saturation_profile,
    saturation_slice,
)
from .syzygy import SyzygyProfile, koszul_cohomology_dim, syzygy_profile

__all__ = [
    "CheckRow",
    "TheoremRow",
    "ConjectureRow",
    "CIRecord",
    "InvariantReport",
    "analyze",
    "verify_defect_duality",
    "ci_analysis",
    "CorpusResult",
    "CorpusSummary",
    "run_corpus",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class CheckRow:
    """One verified identity.  passed is None when the identity does not
    apply to this input (e.g. ct-based identities on smooth input)."""

    name: str
    lhs: int | None
    rhs: int | None
    passed: bool | None

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass(frozen=True)
class TheoremRow:
    """One row of the duality table dim M(f)_{T−k} = dim M(f_s)_k + defect_k,
    with the three quantities coming from independent routes."""

    k: int
    lhs: int
    smooth: int
    defect: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "lhs": self.lhs,
            "smooth": self.smooth,
            "defect": self.defect,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ConjectureRow:
    """Evidence for an open conjecture: recorded, never a failure."""

    name: str
    lhs: int | None
    rhs: int | None
    holds: bool | None

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


@dataclass(frozen=True)
class CIRecord:
    """Outcome of the complete-intersection compatibility analysis."""

    degrees: tuple[int, ...] | None
    verdict: str
    sum_target: int
    product_target: int
    series_identity: bool | None
    saturation_match: bool | None

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees) if self.degrees is not None else None,
            "verdict": self.verdict,
            "sum_target": self.sum_target,
            "product_target": self.product_target,
            "series_identity": self.series_identity,
            "saturation_match": self.saturation_match,
        }


CSV_HEADER = (
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


@dataclass(frozen=True)
class InvariantReport:
    poly_text: str
    var_names: tuple[str, ...]
    field_name: str
    milnor: MilnorProfile
    syzygy: SyzygyProfile | None
    saturation: SaturationProfile | None
    checks: tuple[CheckRow, ...]
    theorem: tuple[TheoremRow, ...]
    ci: CIRecord | None
    conjectures: tuple[ConjectureRow, ...]
    warnings: tuple[str, ...]

    @property
    def isolated(self) -> bool:
        return self.milnor.isolated

    @property
    def ok(self) -> bool:
        """True when no applicable check or duality row failed."""
        if any(row.passed is False for row in self.checks):
            return False
        return all(row.passed for row in self.theorem)

    def to_json_dict(self) -> dict:
        m = self.milnor
        upto = m.k_max + 1
        out: dict[str, Any] = {
            "input": {
                "poly": self.poly_text,
                "vars": list(self.var_names),
                "n": m.n,
                "d": m.d,
                "field": self.field_name,
            },
            "milnor": {
                "T": m.top_degree,
                "tau": m.tau,
                "st": m.st,
                "ct": m.ct,
                "dims": list(m.dims[:upto]),
                "smooth_dims": list(m.smooth_dims[:upto]),
                "isolated": m.isolated,
                "isolated_method": m.isolated_method,
            },
            "syzygy": {
                "mdr": self.syzygy.mdr if self.syzygy else None,
                "ar": list(self.syzygy.ar_dims) if self.syzygy else [],
                "kr": list(self.syzygy.kr_dims) if self.syzygy else [],
                "er": list(self.syzygy.er_dims) if self.syzygy else [],
            },
            "saturation": {
                "sat": self.saturation.sat if self.saturation else None,
                "a_invariant": self.saturation.a_invariant if self.saturation else None,
                "regularity": self.saturation.regularity if self.saturation else None,
                "hatJ_dims": list(self.saturation.hatJ_dims[:upto]) if self.saturation else [],
                "sd_dims": list(self.saturation.sd_dims[:upto]) if self.saturation else [],
                "defects": list(self.saturation.defects[:upto]) if self.saturation else [],
            },
            "checks": [row.to_json() for row in self.checks],
            "theorem": [row.to_json() for row in self.theorem],
            "ci": self.ci.to_json() if self.ci else None,
            "conjectures": [row.to_json() for row in self.conjectures],
            "warnings": list(self.warnings),
        }
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def csv_rows(self) -> list[list]:
        m = self.milnor
        rows: list[list] = [list(CSV_HEADER)]
        for k in range(m.k_max + 1):
            row: list = [k, m.dims[k], m.smooth_dims[k]]
            if self.syzygy and k <= self.syzygy.m_max:
                row += [self.syzygy.ar_dims[k], self.syzygy.kr_dims[k], self.syzygy.er_dims[k]]
            else:
                row += ["", "", ""]
            if self.saturation:
                row += [
                    self.saturation.hatJ_dims[k],
                    self.saturation.sd_dims[k],
                    self.saturation.defects[k],
                ]
            else:
                row += ["", "", ""]
            rows.append(row)
        return rows


def _count_check(name: str, mismatches: int) -> CheckRow:
    return CheckRow(name, mismatches, 0, mismatches == 0)


def _na_check(name: str) -> CheckRow:
    return CheckRow(name, None, None, None)


def _common_checks(f: HomogPoly, mp: MilnorProfile) -> list[CheckRow]:
    d, T = mp.d, mp.top_degree
    checks = [_count_check("euler_identity", euler_mismatches(f))]
    low = sum(
        1 for k in range(min(d - 1, mp.computed_max + 1))
        if mp.dims[k] != space_dim(mp.nvars, k)
    )
    checks.append(_count_check("low_degree_milnor_dims", low))
    sym = sum(
        1 for k in range(T + 1) if mp.smooth_dims[k] != mp.smooth_dims[T - k]
    )
    checks.append(_count_check("smooth_series_symmetry", sym))
    vanish = sum(
        1 for k in range(T + 1, mp.computed_max + 1) if mp.smooth_dims[k] != 0
    )
    checks.append(_count_check("smooth_series_vanishing", vanish))
    return checks


def _full_checks(
    f: HomogPoly,
    mp: MilnorProfile,
    sp: SyzygyProfile,
    satp: SaturationProfile,
    field,
) -> list[CheckRow]:
    n, d, T = mp.n, mp.d, mp.top_degree
    smooth = mp.smooth_input
    checks = _common_checks(f, mp)

    if smooth:
        checks.append(_na_check("ct_range"))
    else:
        checks.append(
            CheckRow("ct_range", mp.ct, min(max(mp.ct, d - 2), T), mp.ct == min(max(mp.ct, d - 2), T))
        )
    st_limit = T + 1 if mp.tau == 0 else T
    checks.append(CheckRow("st_upper_bound", mp.st, st_limit, mp.st <= st_limit))
    if smooth:
        checks.append(_na_check("ct_from_mdr"))
    else:
        rhs = None if sp.mdr is None else sp.mdr + d - 2
        checks.append(CheckRow("ct_from_mdr", mp.ct, rhs, mp.ct == rhs))

    er_mismatch = sum(
        1 for m in range(sp.m_max + 1)
        if sp.er_dims[m] != koszul_cohomology_dim(f, m + n, field)
    )
    checks.append(_count_check("er_matches_milnor_difference", er_mismatch))
    tail_mismatch = sum(
        1 for m in range(max(n * (d - 2), 0), sp.m_max + 1) if sp.er_dims[m] != mp.tau
    )
    checks.append(_count_check("er_tail_equals_tau", tail_mismatch))
    if smooth:
        koszul_only = sum(
            1 for m in range(sp.m_max + 1) if sp.ar_dims[m] != sp.kr_dims[m]
        )
        checks.append(_count_check("smooth_relations_all_koszul", koszul_only))
    else:
        checks.append(_na_check("smooth_relations_all_koszul"))

    bound = agreement_bound(mp)
    gens = partial_derivatives(f)
    outside = 0
    # at and above the bound saturation_slice is J_k itself, so the row
    # would compare J_k with J_k: only lower degrees are swept
    for k in range(min(T + 1, bound)):
        hat = saturation_slice(f, k, field)
        if hat.dim == hat.ambient_dim:
            continue  # Ĵ_k = S_k holds J_k by definition
        for vec in ideal_slice(gens, k, field).basis:
            if not hat.contains(vec):
                outside += 1
    checks.append(_count_check("ideal_inside_saturation", outside))

    increases = sum(
        1 for k in range(len(satp.defects) - 1) if satp.defects[k + 1] > satp.defects[k]
    )
    checks.append(_count_check("defects_nonincreasing", increases))
    if smooth:
        checks.append(_na_check("defect_vanishing_threshold"))
    else:
        first_zero = next(
            (k for k in range(len(satp.defects)) if satp.defects[k] == 0), None
        )
        checks.append(
            CheckRow("defect_vanishing_threshold", first_zero, T - mp.ct, first_zero == T - mp.ct)
        )

    checks.append(CheckRow("saturation_threshold_bound", satp.sat, bound, satp.sat <= bound))
    if smooth:
        checks.append(_na_check("a_invariant_closed_form"))
        checks.append(_na_check("regularity_closed_form"))
    else:
        checks.append(
            CheckRow(
                "a_invariant_closed_form",
                satp.a_invariant,
                satp.a_invariant_closed,
                satp.a_invariant == satp.a_invariant_closed,
            )
        )
        checks.append(
            CheckRow(
                "regularity_closed_form",
                satp.regularity,
                satp.regularity_closed,
                satp.regularity == satp.regularity_closed,
            )
        )

    asym = sum(
        1 for k in range(T + 1) if satp.sd_dims[k] != satp.sd_dims[T - k]
    )
    checks.append(_count_check("gorenstein_symmetry", asym))

    if mp.st >= n * (d - 2) + 1:
        checks.append(CheckRow("sat_equals_st", satp.sat, mp.st, satp.sat == mp.st))
    else:
        checks.append(_na_check("sat_equals_st"))
    if not smooth and 2 * mp.ct >= T:
        bound_tau = mp.smooth_dims[T - mp.ct]
        checks.append(CheckRow("tau_bound_for_large_ct", mp.tau, bound_tau, mp.tau <= bound_tau))
    else:
        checks.append(_na_check("tau_bound_for_large_ct"))
    return checks


def verify_defect_duality(
    mp: MilnorProfile, satp: SaturationProfile
) -> tuple[TheoremRow, ...]:
    """The duality table: dim M(f)_{T−k} against smooth series + defect for
    0 ≤ k ≤ nd−2n−1.  Empty for smooth input."""
    if mp.smooth_input:
        return ()
    n, d, T = mp.n, mp.d, mp.top_degree
    rows = []
    for k in range(n * (d - 2)):
        lhs = mp.dims[T - k]
        smooth = mp.smooth_dims[k]
        dk = satp.defects[k]
        rows.append(TheoremRow(k, lhs, smooth, dk, lhs == smooth + dk))
    return tuple(rows)


def ci_analysis(
    f: HomogPoly,
    mp: MilnorProfile,
    satp: SaturationProfile,
    field,
    ci_degrees: Sequence[int] | None = None,
) -> CIRecord | None:
    """Test whether the saturated ideal behaves like a complete intersection
    of n forms: recover candidate degrees from Σa_i = T−ct+n and Πa_i = τ
    (solvable outright for n=2, otherwise only against user-supplied
    degrees), then verify the series correction and the Ĵ Hilbert function
    coefficient-wise."""
    if mp.smooth_input or not mp.isolated:
        return None
    n, T = mp.n, mp.top_degree
    nvars = mp.nvars
    sum_target = T - mp.ct + n
    product_target = mp.tau

    relations_ok = True
    if ci_degrees is not None:
        degrees = tuple(sorted(int(a) for a in ci_degrees))
        if len(degrees) != n or any(a < 1 for a in degrees):
            raise ValueError(f"need {n} positive candidate degrees")
        relations_ok = sum(degrees) == sum_target and prod(degrees) == product_target
    elif n == 2:
        disc = sum_target * sum_target - 4 * product_target
        root = isqrt(disc) if disc >= 0 else -1
        if disc < 0 or root * root != disc or (sum_target - root) % 2 or sum_target <= root:
            return CIRecord(None, "no integer solution", sum_target, product_target, None, None)
        degrees = ((sum_target - root) // 2, (sum_target + root) // 2)
    else:
        return None

    shift = nvars * (mp.d - 1) - sum(degrees)
    series_ok = all(
        mp.dims[k]
        == mp.smooth_dims[k] + quotient_series_coeff(degrees, nvars, k - shift)
        for k in range(mp.computed_max + 1)
    )
    saturation_ok = all(
        satp.hatJ_dims[k] == space_dim(nvars, k) - quotient_series_coeff(degrees, nvars, k)
        for k in range(len(satp.hatJ_dims))
    )
    verdict = (
        "CI-compatible" if (relations_ok and series_ok and saturation_ok) else "not CI-compatible"
    )
    return CIRecord(degrees, verdict, sum_target, product_target, series_ok, saturation_ok)


def _conjectures(mp: MilnorProfile, satp: SaturationProfile) -> tuple[ConjectureRow, ...]:
    T = mp.top_degree
    rising = sum(
        1 for k in range((T + 1) // 2) if satp.sd_dims[k] > satp.sd_dims[k + 1]
    )
    rows = [ConjectureRow("sd_unimodality", rising, 0, rising == 0)]
    if mp.smooth_input:
        rows.append(ConjectureRow("threshold_gap", None, None, None))
    else:
        rows.append(
            ConjectureRow("threshold_gap", T - mp.ct, mp.st, T - mp.ct <= mp.st)
        )
    return tuple(rows)


def analyze(
    f: HomogPoly,
    *,
    field=QQ,
    k_max: int | None = None,
    var_names: Sequence[str] | None = None,
    source_text: str | None = None,
    ci_degrees: Sequence[int] | None = None,
) -> InvariantReport:
    """Run the full pipeline on one form and assemble the report.

    Input not certified isolated yields a partial report (Milnor data and
    the input-independent checks only) with a prominent warning; everything
    downstream of the thresholds needs certified dimensions.
    """
    names = tuple(var_names) if var_names else tuple(f"x{i}" for i in range(f.nvars))
    if len(names) != f.nvars:
        raise ValueError("need one variable name per variable")
    text = source_text if source_text is not None else f.text(names)

    mp = milnor_profile(f, k_max, field)
    warnings: list[str] = []
    if field.characteristic:
        warnings.append(
            f"running over {field.name}: ranks can drop in special characteristic, "
            "so dimensions are only certified by the exact field mode"
        )
        lost = [
            f"df/d{name}"
            for name, g in zip(names, partial_derivatives(f))
            if not g.is_zero and not any(field.convert(c) for c in g.terms.values())
        ]
        if lost:
            warnings.append(
                f"partial derivatives vanishing over {field.name}, since the characteristic "
                f"{field.characteristic} divides every coefficient: {', '.join(lost)}"
            )

    if not mp.isolated:
        warnings.append(
            "isolatedness not-certified: no proof that the Milnor dimensions settle by "
            f"degree {mp.computed_max}; thresholds, syzygies and saturation are omitted"
        )
        return InvariantReport(
            poly_text=text,
            var_names=names,
            field_name=field.name,
            milnor=mp,
            syzygy=None,
            saturation=None,
            checks=tuple(_common_checks(f, mp)),
            theorem=(),
            ci=None,
            conjectures=(),
            warnings=tuple(warnings),
        )

    sp = syzygy_profile(f, None, field)
    satp = saturation_profile(f, k_max, field)
    if mp.smooth_input:
        warnings.append(
            "input is smooth (tau = 0): ct and mdr are undefined and the duality "
            "table is skipped"
        )

    checks = _full_checks(f, mp, sp, satp, field)
    theorem = verify_defect_duality(mp, satp)
    ci = ci_analysis(f, mp, satp, field, ci_degrees)
    return InvariantReport(
        poly_text=text,
        var_names=names,
        field_name=field.name,
        milnor=mp,
        syzygy=sp,
        saturation=satp,
        checks=tuple(checks),
        theorem=theorem,
        ci=ci,
        conjectures=_conjectures(mp, satp),
        warnings=tuple(warnings),
    )


# --- corpus runner ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusResult:
    entry: CorpusEntry
    report: InvariantReport
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class CorpusSummary:
    field_name: str
    results: tuple[CorpusResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _expected_mismatches(entry: CorpusEntry, report: InvariantReport) -> list[str]:
    got_scalar = {
        "smooth": report.milnor.smooth_input,
        "tau": report.milnor.tau,
        "st": report.milnor.st,
        "ct": report.milnor.ct,
        "mdr": report.syzygy.mdr if report.syzygy else None,
        "sat": report.saturation.sat if report.saturation else None,
        "a_invariant": report.saturation.a_invariant if report.saturation else None,
        "regularity": report.saturation.regularity if report.saturation else None,
        "ci_verdict": report.ci.verdict if report.ci else None,
        "ci_degrees": list(report.ci.degrees)
        if report.ci and report.ci.degrees is not None
        else None,
    }
    prefixes = {
        "milnor_prefix": report.milnor.dims,
        "er_prefix": report.syzygy.er_dims if report.syzygy else (),
        "sd_prefix": report.saturation.sd_dims if report.saturation else (),
        "defects_prefix": report.saturation.defects if report.saturation else (),
        "hatJ_prefix": report.saturation.hatJ_dims if report.saturation else (),
    }
    problems = []
    for key, expected in entry.expected.items():
        if key in prefixes:
            got = list(prefixes[key][: len(expected)])
        elif key in got_scalar:
            got = got_scalar[key]
        else:
            problems.append(f"{key}: unknown golden key")
            continue
        if got != expected:
            problems.append(f"{key}: expected {expected!r}, got {got!r}")
    for row in report.checks:
        if row.passed is False:
            problems.append(f"check {row.name}: lhs {row.lhs} != rhs {row.rhs}")
    for row in report.theorem:
        if not row.passed:
            problems.append(
                f"duality row k={row.k}: {row.lhs} != {row.smooth} + {row.defect}"
            )
    return problems


def run_corpus(
    name_filter: str | None = None, field=QQ, k_max: int | None = None
) -> CorpusSummary:
    """Analyze every built-in example (optionally filtered by a name
    substring) and diff the result against the golden table."""
    results = []
    for entry in CORPUS:
        if name_filter and name_filter not in entry.name:
            continue
        f = parse_poly(entry.poly, entry.var_names)
        report = analyze(
            f,
            field=field,
            k_max=k_max,
            var_names=entry.var_names,
            source_text=entry.poly,
        )
        results.append(
            CorpusResult(entry, report, tuple(_expected_mismatches(entry, report)))
        )
    return CorpusSummary(field.name, tuple(results))
