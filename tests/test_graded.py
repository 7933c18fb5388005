"""Graded slices of polynomial ideals: bases, multiplication matrices and
slice dimensions."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import jacsyz.graded as graded_module
from helpers import random_dense_homogeneous
from jacsyz.analyzer import analyze
from jacsyz.fields import QQ, PrimeField
from jacsyz.graded import (
    FORMS_KEPT,
    DegreeTooLowError,
    basis_index,
    ideal_slice,
    monomial_basis,
    multiplication_matrix,
    slice_dim,
    space_dim,
)
from jacsyz.linalg import rank
from jacsyz.poly import HomogPoly, parse_poly, partial_derivatives
from jacsyz.saturation import saturation_slice

XYZ = ("x", "y", "z")


class TestBasis:
    def test_space_dim_matches_binomial(self):
        for nvars in (1, 2, 3, 4):
            for k in range(8):
                assert space_dim(nvars, k) == comb(nvars - 1 + k, nvars - 1)

    def test_space_dim_negative_degree(self):
        assert space_dim(3, -1) == 0
        assert space_dim(3, -5) == 0

    def test_monomial_basis_sizes(self):
        for nvars in (2, 3, 4):
            for k in range(6):
                assert len(monomial_basis(nvars, k)) == space_dim(nvars, k)

    def test_monomial_basis_order_degree_one(self):
        assert monomial_basis(3, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_monomial_basis_order_degree_two(self):
        assert monomial_basis(3, 2) == (
            (0, 0, 2),
            (0, 1, 1),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        )

    def test_basis_index_inverts_basis(self):
        basis = monomial_basis(3, 4)
        index = basis_index(3, 4)
        for i, e in enumerate(basis):
            assert index[e] == i

    def test_degree_zero(self):
        assert monomial_basis(3, 0) == ((0, 0, 0),)


class TestMultiplicationMatrix:
    def test_coordinate_triangle_matrix_by_hand(self, coordinate_triangle):
        # partials of x*y*z are (y*z, x*z, x*y); against the degree-2 basis
        # each contributes a single unit column.
        gens = partial_derivatives(coordinate_triangle)
        m = multiplication_matrix(gens, 2)
        assert (m.nrows, m.ncols) == (6, 3)
        expected_rows = [[0] * 3 for _ in range(6)]
        index = basis_index(3, 2)
        expected_rows[index[(0, 1, 1)]][0] = 1  # y*z
        expected_rows[index[(1, 0, 1)]][1] = 1  # x*z
        expected_rows[index[(1, 1, 0)]][2] = 1  # x*y
        assert [list(map(int, row)) for row in m.rows] == expected_rows
        assert rank(m, QQ) == 3

    def test_column_count_generator_major(self):
        f = parse_poly("x^4 + y^4 + z^4", XYZ)
        gens = partial_derivatives(f)
        m = multiplication_matrix(gens, 5)
        # 3 generators of degree 3, complements of degree 2
        assert m.ncols == 3 * space_dim(3, 2)
        assert m.nrows == space_dim(3, 5)

    def test_degree_below_generator_raises(self):
        f = parse_poly("x^4 + y^4 + z^4", XYZ)
        gens = partial_derivatives(f)
        with pytest.raises(DegreeTooLowError):
            multiplication_matrix(gens, 2)

    def test_zero_generator_keeps_zero_block(self):
        # columns are positional: a vanishing generator contributes a zero
        # block rather than shrinking the matrix.
        f = parse_poly("y^4 + z^4", XYZ)
        gens = partial_derivatives(f)
        assert gens[0].is_zero
        m = multiplication_matrix(gens, 4)
        sdim = space_dim(3, 1)
        assert m.ncols == 3 * sdim
        assert all(row[j] == 0 for row in m.rows for j in range(sdim))


class TestIdealSlice:
    def test_slice_below_all_generators_is_zero(self, three_cusp):
        gens = partial_derivatives(three_cusp)
        assert slice_dim(gens, 2) == 0
        assert ideal_slice(gens, 2).dim == 0

    def test_coordinate_triangle_slices(self, coordinate_triangle):
        gens = partial_derivatives(coordinate_triangle)
        assert slice_dim(gens, 2) == 3
        # degree 3: multiples of y*z, x*z, x*y span everything divisible
        # by two distinct variables — 10 - 3 pure powers = 7
        assert slice_dim(gens, 3) == 7

    def test_slice_contains_generator_multiples(self, three_cusp):
        gens = partial_derivatives(three_cusp)
        s = ideal_slice(gens, 4)
        index = basis_index(3, 4)
        for g in gens:  # x * g lands in the degree-4 slice for every partial g
            shifted = [0] * space_dim(3, 4)
            for e, c in g.terms.items():
                bumped = (e[0] + 1, e[1], e[2])
                shifted[index[bumped]] = c
            assert s.contains(shifted)

    def test_monotone_under_more_generators(self, three_cusp):
        gens = partial_derivatives(three_cusp)
        extra = gens + (parse_poly("x^3", XYZ),)
        for k in range(3, 7):
            assert slice_dim(gens, k) <= slice_dim(extra, k)

    def test_mod_p_matches_exact_on_corpus_slice(self, three_cusp):
        gens = partial_derivatives(three_cusp)
        for k in range(3, 8):
            exact = slice_dim(gens, k)
            assert slice_dim(gens, k, PrimeField(1000003)) == exact


class TestFormTables:
    @pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["exact", "mod"])
    def test_each_slice_is_built_once(self, field, three_cusp, monkeypatch):
        # rank, subspace and membership queries of one degree share one
        # elimination
        built = Counter()
        real = graded_module.multiplication_matrix

        def counting(gens, degree, field=QQ):
            built[degree] += 1
            return real(gens, degree, field)

        monkeypatch.setattr(graded_module, "multiplication_matrix", counting)
        graded_module.form_table.cache_clear()
        analyze(three_cusp, field=field)
        assert built and max(built.values()) == 1, built

    def test_tables_are_bounded(self):
        rng = random.Random(3)
        for _ in range(FORMS_KEPT + 2):
            analyze(random_dense_homogeneous(rng, 3, 3))
        assert graded_module.form_table.cache_info().currsize <= FORMS_KEPT

    def test_partials_are_built_once_per_form(self, monkeypatch):
        # every stage and check reuses the tuple kept on the polynomial
        calls = Counter()
        real = HomogPoly.partial_derivative

        def counting(self, i):
            calls[i] += 1
            return real(self, i)

        monkeypatch.setattr(HomogPoly, "partial_derivative", counting)
        f = parse_poly("x^2*y^2 + x^2*z^2 + y^2*z^2 - 2*x*y*z*(x + y + z)", XYZ)
        analyze(f)
        assert sum(calls.values()) <= f.nvars, calls


class TestIntegerExactMode:
    @pytest.mark.parametrize("scale", [1, Fraction(3, 4)], ids=["integral", "rational"])
    def test_exact_slices_and_constraints_hold_ints(self, three_cusp, scale):
        f = three_cusp.scaled(scale)
        gens = partial_derivatives(f)
        for k in range(2, 8):
            space = ideal_slice(gens, k)
            assert all(type(v) is int for row in space.basis for v in row), k
            constraints = space.membership_constraints()
            assert all(type(v) is int for row in constraints for v in row), k
            hat = saturation_slice(f, k)
            assert all(type(v) is int for row in hat.basis for v in row), k
