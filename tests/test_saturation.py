"""Degree-wise ideal saturation, the defect sequence, and the two derived
invariants with their closed forms."""

import dataclasses
import functools

import pytest

import jacsyz.analyzer as analyzer_module
import jacsyz.saturation as saturation_module
from jacsyz.analyzer import analyze
from jacsyz.cli import EXIT_CHECK_FAILED, main
from jacsyz.fields import QQ, PrimeField
from jacsyz.graded import basis_index, ideal_slice, monomial_basis, space_dim
from jacsyz.linalg import ExactMatrix, Subspace, kernel
from jacsyz.milnor import milnor_dim, milnor_profile
from jacsyz.poly import partial_derivatives
from jacsyz.saturation import (
    PreconditionViolatedError,
    saturation_profile,
    saturation_slice,
)

SCALARS = {
    # name -> (sat, a_invariant, regularity)
    "three-cusp-quartic": (4, 1, 3),
    "fermat-quartic": (7, None, 6),
    "coordinate-triangle": (0, 0, 1),
    "line-plus-fermat-cubic": (6, 1, 5),
    "binomial-2-2-4": (5, 2, 4),
    "binomial-1-2-3": (3, 0, 2),
    "binomial-2-3-5": (7, 4, 6),
    "one-node-cubic": (3, -1, 2),
}

SD_PREFIX = {
    "three-cusp-quartic": (0, 0, 0, 1, 0, 0, 0),
    "fermat-quartic": (1, 3, 6, 7, 6, 3, 1, 0),
    "coordinate-triangle": (0, 0, 0, 0),
    "line-plus-fermat-cubic": (0, 1, 3, 4, 3, 1, 0),
    "binomial-2-2-4": (0, 0, 1, 1, 1, 0, 0),
    "binomial-1-2-3": (0, 1, 1, 0),
    "binomial-2-3-5": (0, 0, 0, 1, 1, 1, 1, 0),
    "one-node-cubic": (0, 2, 2, 0),
}

DEFECTS_PREFIX = {
    "three-cusp-quartic": (5, 3, 0, 0),
    "coordinate-triangle": (2, 0, 0),
    "line-plus-fermat-cubic": (2, 1, 0, 0),
    "binomial-2-2-4": (5, 3, 1, 0),
    "binomial-1-2-3": (1, 0, 0),
    "binomial-2-3-5": (11, 9, 6, 3, 1, 0),
    "one-node-cubic": (0, 0, 0),
}


class TestProfileTables:
    def test_scalars(self, corpus_polys):
        for name, (sat, a, reg) in SCALARS.items():
            p = saturation_profile(corpus_polys[name])
            assert p.sat == sat, name
            assert p.a_invariant == a, name
            assert p.regularity == reg, name

    def test_sd_prefixes(self, corpus_polys):
        for name, prefix in SD_PREFIX.items():
            p = saturation_profile(corpus_polys[name])
            assert p.sd_dims[: len(prefix)] == prefix, name
            # SD vanishes from the saturation threshold on
            assert all(v == 0 for v in p.sd_dims[p.sat :]), name

    def test_defect_prefixes(self, corpus_polys):
        for name, prefix in DEFECTS_PREFIX.items():
            p = saturation_profile(corpus_polys[name])
            assert p.defects[: len(prefix)] == prefix, name
            assert all(v == 0 for v in p.defects[len(prefix) :]), name

    def test_three_cusp_hatJ(self, three_cusp):
        p = saturation_profile(three_cusp)
        assert p.hatJ_dims[:8] == (0, 0, 0, 4, 9, 15, 22, 30)
        # codimension of Ĵ_k stays at τ = 6 from degree 3 on
        for k in range(3, p.k_max + 1):
            assert space_dim(3, k) - p.hatJ_dims[k] == 6

    def test_closed_forms_match_on_corpus(self, corpus_polys):
        for name, f in corpus_polys.items():
            p = saturation_profile(f)
            if p.smooth_input:
                assert p.a_invariant_closed is None
                assert p.regularity_closed is None
            else:
                assert p.a_invariant == p.a_invariant_closed, name
                assert p.regularity == p.regularity_closed, name


class TestSlices:
    def test_saturated_ideal_not_smaller(self, corpus_polys):
        for name, f in corpus_polys.items():
            gens = partial_derivatives(f)
            for k in range(f.degree + 3):
                inner = ideal_slice(gens, k)
                outer = saturation_slice(f, k)
                assert inner.dim <= outer.dim, (name, k)
                for v in inner.basis:
                    assert outer.contains(v), (name, k)

    def test_already_saturated_ideal_unchanged(self, coordinate_triangle):
        gens = partial_derivatives(coordinate_triangle)
        for k in range(7):
            assert saturation_slice(coordinate_triangle, k).basis == (
                ideal_slice(gens, k).basis
            )

    def test_three_cusp_slices(self, three_cusp):
        # Ĵ picks up one extra dimension in degree 3 and matches J from
        # degree 4 on
        gens = partial_derivatives(three_cusp)
        assert saturation_slice(three_cusp, 3).dim == 4
        assert ideal_slice(gens, 3).dim == 3
        for k in (4, 5, 6):
            assert saturation_slice(three_cusp, k).basis == (
                ideal_slice(gens, k).basis
            )

    def test_stacked_kernel_matches_intersection(self, corpus_polys):
        # reference route: one kernel per variable x_i, intersected pairwise
        for name, f in corpus_polys.items():
            bound = saturation_module.agreement_bound(milnor_profile(f))
            constraints = ideal_slice(partial_derivatives(f), bound).membership_constraints()
            high = basis_index(f.nvars, bound)
            for k in range(bound):
                N = bound - k
                parts = []
                for i in range(f.nvars):
                    shift = [
                        high[mu[:i] + (mu[i] + N,) + mu[i + 1 :]]
                        for mu in monomial_basis(f.nvars, k)
                    ]
                    rows = [[c[s] for s in shift] for c in constraints]
                    m = ExactMatrix.from_rows(rows, ncols=space_dim(f.nvars, k))
                    parts.append(kernel(m, QQ))
                expected = functools.reduce(Subspace.intersect, parts)
                assert saturation_slice(f, k) == expected, (name, k)

    def test_smooth_saturation_is_everything(self, fermat_quartic):
        for k in range(6):
            assert saturation_slice(fermat_quartic, k).dim == space_dim(3, k)

    def test_negative_degree_is_zero_space(self, three_cusp):
        assert saturation_slice(three_cusp, -1).dim == 0

    def test_non_isolated_rejected(self, non_isolated):
        with pytest.raises(PreconditionViolatedError):
            saturation_slice(non_isolated, 3)
        with pytest.raises(PreconditionViolatedError):
            saturation_profile(non_isolated)

    def test_mod_p_profile_matches_exact(self, three_cusp):
        p_exact = saturation_profile(three_cusp)
        p_mod = saturation_profile(three_cusp, field=PrimeField(1000003))
        assert p_mod.sd_dims == p_exact.sd_dims
        assert p_mod.sat == p_exact.sat
        assert p_mod.a_invariant == p_exact.a_invariant


class TestOps:
    def test_sd_dims_op(self, line_plus_cubic):
        assert saturation_profile(line_plus_cubic).sd_dims[:7] == (0, 1, 3, 4, 3, 1, 0)

    def test_sat_threshold_op(self, corpus_polys):
        for name, (sat, _, _) in SCALARS.items():
            assert saturation_profile(corpus_polys[name]).sat == sat, name

    def test_defect_op(self, three_cusp):
        p = saturation_profile(three_cusp)
        # the degree −1 defect is τ: S and Ĵ both vanish there
        assert p.tau == 6
        assert p.defects[:3] == (5, 3, 0)
        # beyond the reporting range the defect τ − dim M(f)_k is read from
        # the certified Milnor plateau and stays 0
        assert p.tau - milnor_dim(three_cusp, 40) == 0

    def test_a_invariant_and_regularity_ops(self, corpus_polys):
        for name, (_, a, reg) in SCALARS.items():
            p = saturation_profile(corpus_polys[name])
            assert p.a_invariant == a, name
            assert p.regularity == reg, name

    def test_node_cubic_negative_a_invariant(self, node_cubic):
        # J and Ĵ agree in every degree >= 0 but τ = 1 > 0, so only the
        # degree −1 defect survives
        p = saturation_profile(node_cubic)
        assert all(v == 0 for v in p.defects)
        assert p.a_invariant == -1

    @pytest.mark.parametrize(
        "row, closed, value",
        [
            ("a_invariant_closed_form", "a_invariant_closed", "a_invariant"),
            ("regularity_closed_form", "regularity_closed", "regularity"),
        ],
        ids=["a_invariant", "regularity"],
    )
    def test_route_disagreement_fails_report(self, three_cusp, monkeypatch, row, closed, value):
        # a closed form off by one must surface as a failed row, a report
        # that is not ok, and exit code 2, never as an exception
        real = saturation_profile(three_cusp)
        doctored = dataclasses.replace(real, **{closed: getattr(real, value) + 1})
        monkeypatch.setattr(
            analyzer_module, "saturation_profile", lambda f, k_max, field: doctored
        )
        report = analyze(three_cusp)
        (check,) = [c for c in report.checks if c.name == row]
        assert check.to_json()["pass"] is False
        assert (check.lhs, check.rhs) == (getattr(real, value), getattr(real, value) + 1)
        assert not report.ok
        poly = "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x*y*z*(x+y+z)"
        assert main(["analyze", "--poly", poly]) == EXIT_CHECK_FAILED


class TestStructure:
    def test_defects_non_increasing(self, corpus_polys):
        for name, f in corpus_polys.items():
            p = saturation_profile(f)
            for k in range(len(p.defects) - 1):
                assert p.defects[k] >= p.defects[k + 1], (name, k)

    def test_gorenstein_symmetry(self, corpus_polys):
        # the analyzer's row counts k in 0..T with dim SD_k != dim SD_{T-k}
        for name, f in corpus_polys.items():
            row = next(r for r in analyze(f).checks if r.name == "gorenstein_symmetry")
            assert (row.lhs, row.passed) == (0, True), name

    def test_unimodality(self, corpus_polys):
        # the analyzer's row counts k below the middle with dim SD_k > dim SD_{k+1}
        for name, f in corpus_polys.items():
            row = next(r for r in analyze(f).conjectures if r.name == "sd_unimodality")
            assert (row.lhs, row.holds) == (0, True), name

    def test_sd_total_is_finite_support(self, corpus_polys):
        # SD is concentrated in degrees < sat; everything past k_max's
        # reporting window would be zero anyway
        for name, f in corpus_polys.items():
            p = saturation_profile(f)
            support = [k for k, v in enumerate(p.sd_dims) if v]
            assert all(k < p.sat for k in support), name
