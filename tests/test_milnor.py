"""Hilbert function of the Jacobian quotient: stabilization, the two
thresholds, and the smooth reference series."""

import random

import pytest

import jacsyz.graded as graded_module
import jacsyz.milnor as milnor_module
from helpers import random_dense_homogeneous
from jacsyz.analyzer import analyze
from jacsyz.cli import EXIT_NON_ISOLATED, main
from jacsyz.corpus import CORPUS
from jacsyz.fields import QQ, PrimeField
from jacsyz.graded import slice_dim, space_dim
from jacsyz.milnor import (
    default_k_max,
    milnor_dim,
    milnor_profile,
    quotient_series_coeff,
    smooth_series_coeff,
    top_degree,
)
from jacsyz.poly import parse_poly, partial_derivatives

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
        assert p.isolated_method == "bayer-stillman"

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
        # dims grow linearly along the singular locus
        tail = p.dims[-3:]
        assert tail[0] < tail[1] < tail[2]

    def test_k_max_extends_report_range(self, three_cusp):
        p = milnor_profile(three_cusp, 15)
        assert p.k_max == 15
        assert len(p.dims) == 16
        assert p.dims[15] == 6

    def test_small_k_max_still_scans_to_t_plus_2(self, three_cusp):
        # the scan floor is T+2, by which every isolated input over Q is
        # certified; the report range stays k_max
        p = milnor_profile(three_cusp, 2)
        assert (p.k_max, p.computed_max) == (2, p.top_degree + 2)
        assert (p.tau, p.st, p.isolated_method) == (6, 4, "bayer-stillman")

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
        assert milnor_profile(three_cusp).tau == 6
        assert milnor_profile(fermat_quartic).tau == 0

    def test_thresholds(self, three_cusp):
        p = milnor_profile(three_cusp)
        assert (p.st, p.ct) == (4, 4)

    def test_coincidence_undefined_for_smooth(self, fermat_quartic):
        assert milnor_profile(fermat_quartic).ct is None

    def test_ops_reject_non_isolated(self, non_isolated):
        p = milnor_profile(non_isolated)
        assert (p.tau, p.st, p.ct) == (None, None, None)

    def test_isolated_check_tags(self, three_cusp, non_isolated):
        p = milnor_profile(three_cusp)
        assert p.isolated and p.isolated_method == "bayer-stillman"
        q = milnor_profile(non_isolated)
        assert not q.isolated and q.isolated_method == "not-certified"

    def test_top_degree_values(self):
        assert top_degree(3, 4) == 6
        assert top_degree(3, 3) == 3
        assert top_degree(4, 3) == 4


def _direct_milnor_dim(f, k):
    return space_dim(f.nvars, k) - slice_dim(partial_derivatives(f), k)


def _slice_degrees(f):
    # degrees of the Jacobian slices built so far for f over Q
    table = graded_module.form_table(partial_derivatives(f), QQ)
    return [k for k in table if isinstance(k, int)]


# three of six lines on the coordinate triangle, as the lines-exact workload
# draws them (tau = 15, st = 8, T = 12)
SIX_LINES = "x*y*z*(x - 1*y - 1*z)*(x + 1*y + 2*z)*(x + 3*y - 3*z)"
# four lines with a node at (0:1:1), which lies on l_1 = z - x - y
NODE_ON_L1 = "x*y*z*(y-z)"
# smooth over Q; its z^5 term vanishes mod 32003
SCREEN_SHORTFALL = "x*y*z^3 + x^5 + y^5 + 32003*z^5"
EXTRA = {"x^6-y^6": "x^6-y^6", "node-on-l1": NODE_ON_L1, "lines-1": SIX_LINES}
BAYER_STILLMAN = {
    "three-cusp-quartic",
    "coordinate-triangle",
    "binomial-2-2-4",
    "binomial-2-3-5",
    *EXTRA,
}
EXACT_INPUTS = [e.name for e in CORPUS] + [f"dense-{seed}" for seed in range(10)] + list(EXTRA)
# six lines with tau = 21 over GF(3); mod 5, x - 2*y - 3*z = x + 3*y + 2*z
SIX_LINES_MOD_P = "x*y*z*(x - 2*y - 3*z)*(x - y - z)*(x + 3*y + 2*z)"


def _exact_input(name, corpus_polys):
    if name.startswith("dense-"):
        # seeded dense ternary forms of degree 3, 4, 5 in turn
        seed = int(name[len("dense-"):])
        return random_dense_homogeneous(random.Random(seed), 3, 3 + seed % 3)
    if name in EXTRA:
        return parse_poly(EXTRA[name], XYZ)
    return corpus_polys[name]


class TestCertificate:
    """The scan stops at a plateau proved by Gotzmann persistence or by
    Bayer–Stillman and fills the rest of the range from it; inputs without
    a certificate are tagged not-certified."""

    @pytest.mark.parametrize("name", EXACT_INPUTS)
    def test_filled_tail_matches_direct_rank(self, name, corpus_polys):
        f = _exact_input(name, corpus_polys)
        p = milnor_profile(f)
        expected = "bayer-stillman" if name in BAYER_STILLMAN else "gotzmann-persistence"
        assert p.isolated_method == expected
        assert p.computed_max == max(default_k_max(f.nvars, f.degree), p.top_degree + 2)
        for k in range(p.computed_max + 1):
            assert p.dims[k] == _direct_milnor_dim(f, k), (name, k)

    @pytest.mark.parametrize("name", EXACT_INPUTS)
    def test_isolated_input_over_q_is_certified_by_t_plus_2(
        self, name, corpus_polys, monkeypatch
    ):
        # over Q not-certified is a proof of non-isolatedness only because
        # every isolated input is certified by degree T+2
        f = _exact_input(name, corpus_polys)
        degrees = []
        real = milnor_module._quotient_dim
        monkeypatch.setattr(
            milnor_module,
            "_quotient_dim",
            lambda g, k, field: degrees.append(k) or real(g, k, field),
        )
        graded_module.form_table.cache_clear()
        p = milnor_profile(f)
        assert p.isolated
        assert max(degrees) <= p.top_degree + 2

    def test_no_slice_past_the_certificate(self, three_cusp):
        # the scan stops at m + 1 with m = st, and the checks stop below the
        # agreement bound, so no later stage builds a higher slice either
        for f, top, tau in ((three_cusp, 5, 6), (parse_poly(SIX_LINES, XYZ), 9, 15)):
            graded_module.form_table.cache_clear()
            report = analyze(f)
            assert report.milnor.isolated_method == "bayer-stillman"
            assert max(_slice_degrees(f)) == top
            # past the range a certified profile answers without any slice
            assert milnor_dim(f, 40) == tau
            assert max(_slice_degrees(f)) == top

    def test_dense_equal_pair_is_rejected_before_any_restriction(self, monkeypatch):
        # a smooth quintic has dims[4] = dims[5] = 12, but 3 partials times
        # the 1 monomial of degree 0 cannot span the 5 quartics in 2 variables
        calls = []
        real = milnor_module._on_hyperplane
        monkeypatch.setattr(
            milnor_module, "_on_hyperplane", lambda g, t: calls.append(t) or real(g, t)
        )
        graded_module.form_table.cache_clear()
        p = milnor_profile(random_dense_homogeneous(random.Random(2), 3, 5))
        assert p.dims[4] == p.dims[5] == 12
        assert p.isolated_method == "gotzmann-persistence"
        assert calls == []

    def test_singular_point_on_the_first_hyperplane(self):
        f = parse_poly(NODE_ON_L1, XYZ)
        graded_module.form_table.cache_clear()
        p = milnor_profile(f)
        assert p.isolated_method == "bayer-stillman"
        assert max(_slice_degrees(f)) == 5  # certified at m = 4
        gens = partial_derivatives(f)
        spans = {}
        for t in (1, 2):
            restricted = [milnor_module._on_hyperplane(g, t) for g in gens]
            spans[t] = slice_dim([g for g in restricted if not g.is_zero], 4) == space_dim(2, 4)
        assert spans == {1: False, 2: True}

    @pytest.mark.parametrize(
        "poly,tau,st,exit_code",
        [
            # singular along two lines: no plateau at all
            ("x^2*y^2", None, None, EXIT_NON_ISOLATED),
        ],
    )
    def test_uncertified_inputs_are_not_isolated(self, poly, tau, st, exit_code, capsys):
        p = milnor_profile(parse_poly(poly, XYZ))
        assert p.isolated_method == "not-certified"
        assert (p.tau, p.st, p.isolated) == (tau, st, tau is not None)
        assert main(["analyze", "--poly", poly]) == exit_code
        capsys.readouterr()

    def test_rising_dims_reject_every_member(self):
        # dims[14] = 72 < dims[15] = dims[16] = 73: no hyperplane can map
        # M_14 onto M_15, so m = 15 fails before any restriction is built
        f = parse_poly("x^5*y^5+z^10", XYZ)
        p = milnor_profile(f)
        assert p.dims[14] < p.dims[15] == p.dims[16]
        sections = {}
        certified = milnor_module._regularity_certified(
            partial_derivatives(f), list(p.dims[:17]), f.degree, QQ, sections
        )
        assert not certified
        assert sections == {}

    def test_small_field_flat_tail_is_certified_by_gotzmann(self):
        # over GF(3) this arrangement has tau = 21 and none of the three
        # members of the family certifies it; its tail is flat at k_top = 20,
        # so the scan runs on until Gotzmann holds at k - 1 = tau
        field = PrimeField(3)
        f = parse_poly(SIX_LINES_MOD_P, XYZ)
        p = milnor_profile(f, field=field)
        assert p.isolated_method == "gotzmann-persistence"
        assert (p.tau, p.isolated) == (21, True)
        assert p.computed_max == 22
        gens = partial_derivatives(f)
        for k in (21, 22):
            assert p.dims[k] == space_dim(3, k) - slice_dim(gens, k, field), k

    def test_small_field_moving_tail_is_not_certified(self):
        # mod 5 two of these lines coincide, so the dims still rise at
        # k_top and the scan stops there
        f = parse_poly(SIX_LINES_MOD_P, XYZ)
        p = milnor_profile(f, field=PrimeField(5))
        k_top = default_k_max(3, 6)
        assert p.isolated_method == "not-certified" and not p.isolated
        assert p.computed_max == k_top
        assert p.dims[k_top - 1] < p.dims[k_top]


class TestScreen:
    """Over Q, a Milnor rank at k ≥ 2(d−1) is taken from one GF(32003)
    elimination when that reaches the generic rank, and from the exact
    slice otherwise; a prime field is never screened."""

    @pytest.mark.parametrize(
        "nvars,d,seed", [(3, 5, 0), (3, 6, 0), (3, 6, 1), (4, 3, 0), (4, 3, 1)]
    )
    def test_screened_dims_are_exact_ranks(self, nvars, d, seed):
        f = random_dense_homogeneous(random.Random(seed), nvars, d)
        graded_module.form_table.cache_clear()
        p = milnor_profile(f)
        assert p.smooth_input and p.isolated_method == "gotzmann-persistence"
        # the scan stops at T+1 (dims 0), and no degree from 2(d−1) on
        # fell back to an exact slice
        stop = p.top_degree + 1
        assert max(_slice_degrees(f)) == 2 * (d - 1) - 1
        # above T+1 the dims are the filled 0: J_{T+1} = S_{T+1} already
        for k in range(stop + 1):
            assert p.dims[k] == _direct_milnor_dim(f, k), k

    def test_shortfall_falls_back_to_the_exact_slice(self):
        # smooth over Q, but z^5 vanishes mod 32003 and the screen sees
        # rank 65 < 66 in degree 10
        f = parse_poly(SCREEN_SHORTFALL, XYZ)
        gens = partial_derivatives(f)
        graded_module.form_table.cache_clear()
        p = milnor_profile(f)
        assert [k for k in _slice_degrees(f) if k >= 8] == [10]
        assert p.tau == 0 and p.dims == p.smooth_dims
        for k in range(p.computed_max + 1):
            assert p.dims[k] == space_dim(3, k) - slice_dim(gens, k, QQ), k
        assert slice_dim(gens, 10, PrimeField(32003)) == 65

    def test_prime_field_is_never_screened(self):
        f = random_dense_homogeneous(random.Random(2), 3, 5)
        field = PrimeField(2147483647)
        graded_module.form_table.cache_clear()
        milnor_profile(f, field=field)
        table = graded_module.form_table(partial_derivatives(f), field)
        assert {8, 9, 10} <= set(table)
