"""Hilbert function of the Jacobian quotient: stabilization, the two
thresholds, and the smooth reference series."""

import random

import pytest

import jacsyz.graded as graded_module
import jacsyz.milnor as milnor_module
from helpers import random_dense_homogeneous
from jacsyz.cli import EXIT_NON_ISOLATED, EXIT_OK, main
from jacsyz.corpus import CORPUS
from jacsyz.graded import slice_dim, space_dim
from jacsyz.milnor import (
    NotStabilizedError,
    SmoothInputError,
    coincidence_threshold,
    default_k_max,
    isolated_check,
    jacobian_generators,
    milnor_dim,
    milnor_profile,
    quotient_series_coeff,
    smooth_series_coeff,
    stability_threshold,
    top_degree,
    total_tjurina,
)
from jacsyz.poly import parse_poly

XYZ = ("x", "y", "z")


class TestSmoothSeries:
    def test_quartic_surface_coefficients(self):
        # ((1 - t^3)/(1 - t))^3 = (1 + t + t^2)^3
        got = [smooth_series_coeff(2, 4, k) for k in range(9)]
        assert got == [1, 3, 6, 7, 6, 3, 1, 0, 0]

    def test_symmetric_about_midpoint(self):
        for n, d in ((1, 3), (2, 4), (2, 5), (3, 3)):
            T = (n + 1) * (d - 2)
            for k in range(T + 1):
                assert smooth_series_coeff(n, d, k) == smooth_series_coeff(
                    n, d, T - k
                )

    def test_vanishes_past_top_degree(self):
        for n, d in ((1, 4), (2, 3), (2, 4), (3, 3)):
            T = (n + 1) * (d - 2)
            for k in range(T + 1, T + 5):
                assert smooth_series_coeff(n, d, k) == 0
            assert smooth_series_coeff(n, d, T) == 1

    def test_negative_degree(self):
        assert smooth_series_coeff(2, 4, -1) == 0

    def test_total_sum_is_product_formula(self):
        # sum of coefficients = (d-1)^(n+1)
        for n, d in ((1, 3), (2, 3), (2, 4), (2, 5)):
            T = (n + 1) * (d - 2)
            total = sum(smooth_series_coeff(n, d, k) for k in range(T + 1))
            assert total == (d - 1) ** (n + 1)


class TestQuotientSeries:
    def test_equal_degrees_match_smooth_series(self):
        for n, d in ((1, 3), (2, 3), (2, 4), (2, 5), (3, 3)):
            degrees = tuple([d - 1] * (n + 1))
            for k in range((n + 1) * (d - 2) + 3):
                assert quotient_series_coeff(degrees, n + 1, k) == (
                    smooth_series_coeff(n, d, k)
                )

    def test_mixed_degrees_by_hand(self):
        # Q[x,y,z] / (deg 1, deg 2, deg 3) regular sequence:
        # (1+t)(1+t+t^2) = 1 + 2t + 2t^2 + t^3
        got = [quotient_series_coeff((1, 2, 3), 3, k) for k in range(6)]
        assert got == [1, 2, 2, 1, 0, 0]

    def test_fewer_generators_than_variables(self):
        # Q[x,y,z] / (deg 2): coefficient of t^k in (1 - t^2)/(1 - t)^3
        got = [quotient_series_coeff((2,), 3, k) for k in range(5)]
        assert got == [
            space_dim(3, k) - space_dim(3, k - 2) for k in range(5)
        ]

    def test_empty_generators(self):
        assert quotient_series_coeff((), 3, 4) == space_dim(3, 4)


class TestProfile:
    def test_three_cusp(self, three_cusp):
        p = milnor_profile(three_cusp)
        assert (p.n, p.d, p.top_degree) == (2, 4, 6)
        assert p.dims[:7] == (1, 3, 6, 7, 6, 6, 6)
        assert p.tau == 6
        assert p.st == 4
        assert p.ct == 4
        assert not p.smooth_input
        assert p.isolated
        assert p.isolated_method == "gotzmann-persistence"

    def test_fermat_quartic_is_smooth(self, fermat_quartic):
        p = milnor_profile(fermat_quartic)
        assert p.smooth_input
        assert p.tau == 0
        assert p.st == 7  # first degree where the quotient vanishes
        assert p.dims[:8] == (1, 3, 6, 7, 6, 3, 1, 0)
        assert p.dims == p.smooth_dims
        assert p.isolated

    def test_coordinate_triangle(self, coordinate_triangle):
        p = milnor_profile(coordinate_triangle)
        assert p.top_degree == 3
        assert p.tau == 3
        assert p.st == 1
        assert p.ct == 2
        assert p.dims[:4] == (1, 3, 3, 3)

    def test_node_cubic(self, node_cubic):
        p = milnor_profile(node_cubic)
        assert p.tau == 1
        assert p.st == 3
        assert p.ct == 3

    def test_binomial_family(self, corpus_polys):
        expected = {
            "binomial-2-2-4": (6, 5, 3),
            "binomial-1-2-3": (2, 3, 2),
            "binomial-2-3-5": (12, 7, 4),
        }
        for name, (tau, st, ct) in expected.items():
            p = milnor_profile(corpus_polys[name])
            assert (p.tau, p.st, p.ct) == (tau, st, ct), name

    def test_non_isolated_never_stabilizes(self, non_isolated):
        p = milnor_profile(non_isolated)
        assert not p.isolated
        assert not p.stabilized
        # dims grow linearly along the singular locus
        tail = p.dims[-3:]
        assert tail[0] < tail[1] < tail[2]

    def test_k_max_extends_report_range(self, three_cusp):
        p = milnor_profile(three_cusp, 15)
        assert p.k_max == 15
        assert len(p.dims) == 16
        assert p.dims[15] == 6

    def test_profile_k_max_defaults(self, three_cusp):
        p = milnor_profile(three_cusp)
        assert p.k_max == default_k_max(3, 4)

    def test_milnor_dim_matches_profile(self, three_cusp):
        p = milnor_profile(three_cusp)
        for k in range(p.k_max + 1):
            assert milnor_dim(three_cusp, k) == p.dims[k]
        assert milnor_dim(three_cusp, -1) == 0

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            milnor_profile(parse_poly("x + y", ("x", "y")))


class TestOps:
    def test_total_tjurina(self, three_cusp, fermat_quartic):
        assert total_tjurina(three_cusp) == 6
        assert total_tjurina(fermat_quartic) == 0

    def test_thresholds(self, three_cusp):
        assert stability_threshold(three_cusp) == 4
        assert coincidence_threshold(three_cusp) == 4

    def test_coincidence_undefined_for_smooth(self, fermat_quartic):
        with pytest.raises(SmoothInputError):
            coincidence_threshold(fermat_quartic)

    def test_ops_reject_non_isolated(self, non_isolated):
        with pytest.raises(NotStabilizedError):
            total_tjurina(non_isolated)
        with pytest.raises(NotStabilizedError):
            stability_threshold(non_isolated)

    def test_isolated_check_tags(self, three_cusp, non_isolated):
        ok, method = isolated_check(three_cusp)
        assert ok and method == "gotzmann-persistence"
        bad, method2 = isolated_check(non_isolated)
        assert not bad and method2 == "heuristic-window"

    def test_top_degree_values(self):
        assert top_degree(3, 4) == 6
        assert top_degree(3, 3) == 3
        assert top_degree(4, 3) == 4


def _direct_milnor_dim(f, k):
    return space_dim(f.nvars, k) - slice_dim(jacobian_generators(f), k)


class TestCertificate:
    """The scan stops at a Gotzmann-certified plateau and fills the rest of
    the range from it; inputs without a certificate keep the window test."""

    @pytest.mark.parametrize(
        "name", [e.name for e in CORPUS] + [f"dense-{seed}" for seed in range(10)]
    )
    def test_filled_tail_matches_direct_rank(self, name, corpus_polys):
        if name.startswith("dense-"):
            # seeded dense ternary forms of degree 3, 4, 5 in turn
            seed = int(name[len("dense-"):])
            f = random_dense_homogeneous(random.Random(seed), 3, 3 + seed % 3)
        else:
            f = corpus_polys[name]
        p = milnor_profile(f)
        assert p.isolated_method == "gotzmann-persistence"
        assert p.computed_max == max(
            default_k_max(f.nvars, f.degree), p.top_degree + p.n + 2
        )
        for k in range(p.computed_max + 1):
            assert p.dims[k] == _direct_milnor_dim(f, k), (name, k)

    def test_no_slice_past_the_certificate(self, monkeypatch, three_cusp):
        requested = []
        real = milnor_module.slice_dim

        def counting(gens, degree, field):
            requested.append(degree)
            return real(gens, degree, field)

        monkeypatch.setattr(milnor_module, "slice_dim", counting)
        graded_module.form_table.cache_clear()
        p = milnor_profile(three_cusp)
        assert p.isolated_method == "gotzmann-persistence"
        assert max(requested) == max(p.d - 1, p.tau) + 1 == 7
        assert p.computed_max == 14
        # past the range a certified profile answers without any slice
        requested.clear()
        assert milnor_dim(three_cusp, 40) == 6
        assert requested == []

    @pytest.mark.parametrize(
        "poly,tau,st,exit_code",
        [
            # tau = 25 lies beyond the scanned range (k_top = 20)
            ("x^6-y^6", 25, 8, EXIT_OK),
            # singular along two lines: no plateau at all
            ("x^2*y^2", None, None, EXIT_NON_ISOLATED),
        ],
    )
    def test_uncertified_inputs_keep_the_window_test(self, poly, tau, st, exit_code, capsys):
        p = milnor_profile(parse_poly(poly, XYZ))
        assert p.isolated_method == "heuristic-window"
        assert (p.tau, p.st, p.isolated) == (tau, st, tau is not None)
        assert main(["analyze", "--poly", poly]) == exit_code
        capsys.readouterr()
