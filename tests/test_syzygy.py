"""Graded relations among the partial derivatives, and the split into
Koszul and essential parts."""

import random

import pytest

from helpers import koszul_relation_vectors_reference, random_dense_homogeneous
from jacsyz.fields import QQ, CoefficientNotInFieldError, PrimeField, field_from_name
from jacsyz.graded import multiplication_matrix
from jacsyz.linalg import ExactMatrix, rank
from jacsyz.milnor import milnor_profile, top_degree
from jacsyz.poly import parse_poly, partial_derivatives
from jacsyz.syzygy import (
    ar_dim,
    er_dim,
    koszul_cohomology_dim,
    koszul_relation_vectors,
    kr_dim,
    syzygy_profile,
)


def _relation_matrix(f, m):
    """Matrix of (a_0, ..., a_n) -> sum a_i f_i on degree-m block coordinates:
    the coefficients of a_0 in the degree-m monomial basis, then a_1, ..."""
    return multiplication_matrix(partial_derivatives(f), m + f.degree - 1)


def _is_relation(matrix, v):
    support = [(j, x) for j, x in enumerate(v) if x]
    return all(sum(row[j] * x for j, x in support) == 0 for row in matrix.rows)


class TestCoordinateTriangle:
    def test_dimension_tables(self, coordinate_triangle):
        f = coordinate_triangle
        assert [ar_dim(f, m) for m in range(5)] == [0, 2, 6, 12, 20]
        assert [kr_dim(f, m) for m in range(5)] == [0, 0, 3, 9, 17]
        assert [er_dim(f, m) for m in range(5)] == [0, 2, 3, 3, 3]

    def test_degree_one_relation_by_hand(self, coordinate_triangle):
        # (x, -y, 0) pairs with the partials (y*z, x*z, x*y):
        # x*(y*z) - y*(x*z) + 0 = 0.  Degree-1 block basis is (z, y, x).
        m = _relation_matrix(coordinate_triangle, 1)
        assert m.ncols - rank(m, QQ) == 2
        assert _is_relation(m, [0, 0, 1, 0, -1, 0, 0, 0, 0])
        # (0, y, -z): y*(x*z) - z*(x*y) = 0
        assert _is_relation(m, [0, 0, 0, 0, 1, 0, -1, 0, 0])

    def test_no_koszul_relations_below_generator_degree(self, coordinate_triangle):
        assert koszul_relation_vectors(coordinate_triangle, 1) == []
        assert kr_dim(coordinate_triangle, 1) == 0

    def test_mdr(self, coordinate_triangle):
        assert syzygy_profile(coordinate_triangle).mdr == 1


class TestThreeCusp:
    def test_dimension_tables(self, three_cusp):
        f = three_cusp
        assert [ar_dim(f, m) for m in range(7)] == [0, 0, 3, 8, 15, 24, 35]
        assert [kr_dim(f, m) for m in range(7)] == [0, 0, 0, 3, 9, 18, 29]
        assert [er_dim(f, m) for m in range(7)] == [0, 0, 3, 5, 6, 6, 6]

    def test_mdr(self, three_cusp):
        assert syzygy_profile(three_cusp).mdr == 2


class TestKoszulInsideAll:
    def test_koszul_vectors_are_relations(self, corpus_polys):
        for name, f in corpus_polys.items():
            d = f.degree
            for m in range(d - 1, d + 2):
                vectors = koszul_relation_vectors(f, m)
                if not vectors:
                    continue
                matrix = _relation_matrix(f, m)
                for v in vectors:
                    assert _is_relation(matrix, v), (name, m)

    def test_koszul_vector_count(self, three_cusp):
        # 3 pairs (i, j), times the monomials multiplying each pair
        d = three_cusp.degree
        assert len(koszul_relation_vectors(three_cusp, d - 1)) == 3
        assert len(koszul_relation_vectors(three_cusp, d)) == 9

    @pytest.mark.parametrize("mode", ["exact", "mod:3", "mod:5", "mod:1000003"])
    def test_kr_dim_matches_reference_builder(self, corpus_polys, mode):
        # the hand-placed reference builder against the one built from
        # multiplication_matrix: rational coefficients, a cone (zero ∂z), a
        # 4-variable form and two dense seeds ride along with the corpus
        field = field_from_name(mode)
        rng = random.Random(18)
        forms = dict(corpus_polys)
        forms["rational"] = parse_poly("3/4*x^4 - 1/6*y^4 + 5/2*z^4 + 1/3*x*y*z^2", ("x", "y", "z"))
        forms["cone"] = parse_poly("x^4 + y^4", ("x", "y", "z"))
        forms["four-vars"] = parse_poly("x^2*y*z + y^4 + z^4 + w^4", ("x", "y", "z", "w"))
        forms["dense-3-5"] = random_dense_homogeneous(rng, 3, 5)
        forms["dense-4-3"] = random_dense_homogeneous(rng, 4, 3)
        refused = set()
        for name, f in forms.items():
            for m in range((f.nvars - 1) * (f.degree - 2) + 3):
                try:
                    vectors = koszul_relation_vectors_reference(f, m, field)
                except CoefficientNotInFieldError:
                    # a denominator vanishes mod p: the package refuses too
                    with pytest.raises(CoefficientNotInFieldError):
                        kr_dim(f, m, field)
                    refused.add(name)
                    continue
                expected = rank(ExactMatrix.from_rows(vectors), field) if vectors else 0
                assert kr_dim(f, m, field) == expected, (name, m)
        # only 1/6 and 1/3 have no image, and only in GF(3)
        assert refused == ({"rational"} if mode == "mod:3" else set())

    def test_kr_below_ar_everywhere(self, corpus_polys):
        for name, f in corpus_polys.items():
            for m in range(6):
                assert kr_dim(f, m) <= ar_dim(f, m), (name, m)


class TestEssential:
    def test_smooth_input_has_no_essential_relations(self, fermat_quartic):
        for m in range(8):
            assert er_dim(fermat_quartic, m) == 0

    def test_er_matches_quotient_difference(self, corpus_polys):
        # second route: dim M(f) minus the smooth reference in the shifted
        # degree; both must agree everywhere they are defined
        for name, f in corpus_polys.items():
            n = f.nvars - 1
            for m in range(n * (f.degree - 2) + 3):
                assert er_dim(f, m) == koszul_cohomology_dim(f, m + n), (name, m)

    def test_er_tail_equals_tjurina(self, corpus_polys):
        for name, f in corpus_polys.items():
            p = milnor_profile(f)
            if not p.isolated:
                continue
            start = p.n * (f.degree - 2)
            for m in range(start, start + 3):
                assert er_dim(f, m) == p.tau, (name, m)

    def test_er_profile_tables(self, corpus_polys):
        expected = {
            "binomial-2-2-4": (0, 1, 3, 5, 6, 6, 6),
            "line-plus-fermat-cubic": (0, 0, 1, 2, 3, 3, 3),
            "one-node-cubic": (0, 0, 1, 1, 1),
            "binomial-1-2-3": (0, 1, 2, 2, 2),
        }
        for name, ers in expected.items():
            p = syzygy_profile(corpus_polys[name])
            assert p.er_dims[: len(ers)] == ers, name


class TestProfile:
    def test_profile_consistency(self, three_cusp):
        p = syzygy_profile(three_cusp)
        assert p.mdr == 2
        for m in range(p.m_max + 1):
            assert p.er_dims[m] == p.ar_dims[m] - p.kr_dims[m]

    def test_profile_range_default(self, three_cusp):
        p = syzygy_profile(three_cusp)
        n, d = 2, 4
        assert p.m_max == n * (d - 2) + 2

    def test_mdr_none_for_smooth(self, fermat_quartic):
        assert syzygy_profile(fermat_quartic).mdr is None

    def test_mdr_table(self, corpus_polys):
        expected = {
            "three-cusp-quartic": 2,
            "coordinate-triangle": 1,
            "line-plus-fermat-cubic": 2,
            "binomial-2-2-4": 1,
            "binomial-1-2-3": 1,
            "binomial-2-3-5": 1,
            "one-node-cubic": 2,
        }
        for name, mdr in expected.items():
            assert syzygy_profile(corpus_polys[name]).mdr == mdr, name

    def test_mod_p_tables_match_exact(self, three_cusp):
        field = PrimeField(1000003)
        p_exact = syzygy_profile(three_cusp)
        p_mod = syzygy_profile(three_cusp, field=field)
        assert p_mod.er_dims == p_exact.er_dims
        assert p_mod.mdr == p_exact.mdr

    def test_coincidence_link(self, corpus_polys):
        # first essential relation appears exactly d - 2 degrees after the
        # quotient leaves the smooth reference series
        for name, f in corpus_polys.items():
            p = milnor_profile(f)
            if p.smooth_input:
                continue
            mdr = syzygy_profile(f).mdr
            assert p.ct == mdr + f.degree - 2, name
