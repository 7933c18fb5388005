"""Acceptance gate: the frozen end-to-end claims this package must keep.

Every table here was derived by hand before the implementation existed and
is asserted with exact integer equality.  Each test prints one PASS/FAIL
line (run with -s to see them stream).
"""

import random
from math import comb

from jacsyz.analyzer import analyze
from jacsyz.corpus import CORPUS
from jacsyz.graded import space_dim
from jacsyz.milnor import (
    milnor_profile,
    quotient_series_coeff,
    smooth_series_coeff,
    top_degree,
)
from jacsyz.poly import euler_mismatches, parse_poly
from jacsyz.saturation import saturation_profile
from jacsyz.syzygy import ar_dim, koszul_cohomology_dim, kr_dim, syzygy_profile

from helpers import random_dense_homogeneous


def _parsed(name):
    entry = next(e for e in CORPUS if e.name == name)
    return parse_poly(entry.poly, entry.var_names)


def _non_smooth_corpus():
    for entry in CORPUS:
        f = parse_poly(entry.poly, entry.var_names)
        if not milnor_profile(f).smooth_input:
            yield entry.name, f


def _finish(number: int, title: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{status}] {title}")
    assert not failures, f"criterion {number}: " + "; ".join(map(str, failures))


def test_criterion_1_three_cusp_quartic():
    bad = []
    f = _parsed("three-cusp-quartic")
    mp = milnor_profile(f)
    sp = saturation_profile(f)

    if mp.dims[:7] != (1, 3, 6, 7, 6, 6, 6):
        bad.append(f"dims prefix {mp.dims[:7]}")
    if any(v != 6 for v in mp.dims[7:]):
        bad.append("dims tail not constant 6")
    if mp.smooth_dims[:8] != (1, 3, 6, 7, 6, 3, 1, 0):
        bad.append(f"smooth dims {mp.smooth_dims[:8]}")
    if mp.tau != 6:
        bad.append(f"tau {mp.tau}")
    if (sp.defects[0], sp.defects[1]) != (5, 3):
        bad.append(f"defects {sp.defects[:2]}")
    if any(v != 0 for v in sp.defects[2:]):
        bad.append("defects past degree 1 not all zero")
    for m in range(len(sp.hatJ_dims)):
        want = 0 if m <= 2 else comb(m + 2, 2) - 6
        if sp.hatJ_dims[m] != want:
            bad.append(f"hatJ dim at {m}: {sp.hatJ_dims[m]} != {want}")
    if sp.sat != 4 or mp.st != 4:
        bad.append(f"sat {sp.sat}, st {mp.st}")
    if sp.sd_dims[3] != 1 or any(v for k, v in enumerate(sp.sd_dims) if k != 3):
        bad.append(f"SD dims {sp.sd_dims[:6]}")
    _finish(1, "three-cusp quartic full invariant table", bad)


def test_criterion_2_duality_rows_three_independent_routes():
    bad = []
    for name, f in _non_smooth_corpus():
        mp = milnor_profile(f)
        sp = saturation_profile(f)
        n, d, T = mp.n, mp.d, mp.top_degree
        for k in range(n * d - 2 * n):
            lhs = mp.dims[T - k]  # ideal-codimension route
            smooth = smooth_series_coeff(n, d, k)  # closed-form series
            defect = sp.defects[k]  # saturation-kernel route
            if lhs != smooth + defect:
                bad.append(f"{name} k={k}: {lhs} != {smooth}+{defect}")
    _finish(2, "duality dim M(f)_(T-k) = smooth_k + defect_k on all entries", bad)


def test_criterion_3_essential_relation_cross_check():
    bad = []
    for entry in CORPUS:
        f = parse_poly(entry.poly, entry.var_names)
        mp = milnor_profile(f)
        n = mp.n
        prof = syzygy_profile(f)
        for m in range(prof.m_max + 1):
            kernel_route = prof.er_dims[m]
            series_route = koszul_cohomology_dim(f, m + n)
            if kernel_route != series_route:
                bad.append(f"{entry.name} m={m}: {kernel_route} != {series_route}")
        if mp.isolated:
            start = n * (mp.d - 2)
            for m in range(start, prof.m_max + 1):
                if prof.er_dims[m] != mp.tau:
                    bad.append(f"{entry.name} tail m={m}: {prof.er_dims[m]} != tau")
    _finish(3, "essential-relation dims agree across both routes and tail at tau", bad)


def test_criterion_4_binomial_family_thresholds():
    bad = []
    for p, q, dz in ((2, 2, 4), (1, 2, 3), (2, 3, 5)):
        f = parse_poly(f"x^{p}*y^{q} + z^{dz}", ("x", "y", "z"))
        d = f.degree
        mp = milnor_profile(f)
        mdr = syzygy_profile(f).mdr
        if mdr != 1:
            bad.append(f"({p},{q},{dz}) mdr {mdr}")
        if mp.ct != d - 1:
            bad.append(f"({p},{q},{dz}) ct {mp.ct} != {d - 1}")
        if mp.st != 2 * d - 3:
            bad.append(f"({p},{q},{dz}) st {mp.st} != {2 * d - 3}")
    _finish(4, "x^p*y^q + z^d family: mdr=1, ct=d-1, st=2d-3", bad)


def test_criterion_5_saturation_defect_module_structure():
    bad = []
    f = _parsed("line-plus-fermat-cubic")
    sd = saturation_profile(f).sd_dims
    if sd[:7] != (0, 1, 3, 4, 3, 1, 0):
        bad.append(f"SD dims {sd[:7]}")
    for entry in CORPUS:
        report = analyze(parse_poly(entry.poly, entry.var_names))
        symmetry = next(r for r in report.checks if r.name == "gorenstein_symmetry")
        if symmetry.passed is not True:
            bad.append(f"{entry.name}: symmetry broken")
        unimodality = next(r for r in report.conjectures if r.name == "sd_unimodality")
        if unimodality.holds is not True:
            bad.append(f"{entry.name}: unimodality evidence broken")
    _finish(5, "SD table of x*(x^3+y^3+z^3), symmetry and unimodality corpus-wide", bad)


def test_criterion_6_closed_form_identities():
    bad = []
    for name, f in _non_smooth_corpus():
        mp = milnor_profile(f)
        sp = saturation_profile(f)
        T, d = mp.top_degree, mp.d
        mdr = syzygy_profile(f).mdr
        if mp.ct != mdr + d - 2:
            bad.append(f"{name}: ct {mp.ct} != mdr+d-2 {mdr + d - 2}")
        if sp.a_invariant != T - mp.ct - 1:
            bad.append(f"{name}: a {sp.a_invariant} != {T - mp.ct - 1}")
        if sp.regularity != max(T - mp.ct, sp.sat - 1):
            bad.append(f"{name}: reg {sp.regularity}")
        # and the definitional routes recorded next to the closed forms agree
        if sp.a_invariant_closed != sp.a_invariant:
            bad.append(f"{name}: a-invariant routes split")
        if sp.regularity_closed != sp.regularity:
            bad.append(f"{name}: regularity routes split")
    _finish(6, "ct = mdr+d-2, a = T-ct-1, reg = max(T-ct, sat-1) on all entries", bad)


def test_criterion_7_complete_intersection_analysis():
    bad = []
    f = parse_poly("x^2*y^2 + z^4", ("x", "y", "z"))
    report = analyze(f)
    ci = report.ci
    if ci is None or ci.degrees != (2, 3) or ci.verdict != "CI-compatible":
        bad.append(f"binomial quartic CI record {ci}")
    else:
        # recompute both coefficient-wise identities from scratch
        mp = report.milnor
        sp = report.saturation
        shift = 3 * (mp.d - 1) - sum(ci.degrees)
        for k in range(mp.computed_max + 1):
            want = mp.smooth_dims[k] + quotient_series_coeff(ci.degrees, 3, k - shift)
            if mp.dims[k] != want:
                bad.append(f"series identity fails at degree {k}")
        for k in range(len(sp.hatJ_dims)):
            want = space_dim(3, k) - quotient_series_coeff(ci.degrees, 3, k)
            if sp.hatJ_dims[k] != want:
                bad.append(f"saturated-ideal identity fails at degree {k}")
    cusp = analyze(_parsed("three-cusp-quartic")).ci
    if cusp is None or cusp.degrees is not None or "no integer solution" not in cusp.verdict:
        bad.append(f"three-cusp CI record {cusp}")
    _finish(7, "CI degrees (2,3) with coefficient-wise identities; no solution for cusps", bad)


def test_criterion_8_random_dense_forms():
    bad = []
    rng = random.Random(20260819)
    cases = [(3, 25), (4, 15), (5, 10)]
    for d, count in cases:
        T = top_degree(3, d)
        for trial in range(count):
            f = random_dense_homogeneous(rng, 3, d)
            tag = f"d={d} trial={trial}"
            if euler_mismatches(f):
                bad.append(f"{tag}: euler identity")
                continue
            mp = milnor_profile(f, T + 4)
            if mp.isolated and mp.tau == 0:
                if mp.dims != mp.smooth_dims:
                    bad.append(f"{tag}: dims differ from smooth closed form")
                for m in range(2 * (d - 2) + 3):
                    if ar_dim(f, m) != kr_dim(f, m):
                        bad.append(f"{tag}: essential relation at m={m}")
                        break
    _finish(8, "50 random dense forms: euler, no essential relations, smooth dims", bad)
