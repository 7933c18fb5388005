"""Parser grammar, polynomial arithmetic, and the Euler identity."""

from fractions import Fraction

import pytest

from jacsyz.poly import (
    HomogPoly,
    NotHomogeneousError,
    ParseError,
    ZeroPolynomialError,
    euler_mismatches,
    parse_poly,
    partial_derivatives,
    permute_variables,
)

XYZ = ("x", "y", "z")


class TestParser:
    def test_single_monomial(self):
        f = parse_poly("x^2*y", XYZ)
        assert f.nvars == 3
        assert f.degree == 3
        assert f.terms == {(2, 1, 0): Fraction(1)}

    def test_rational_coefficient(self):
        f = parse_poly("3/4*x^2 - y^2", ("x", "y"))
        assert f.coefficient((2, 0)) == Fraction(3, 4)
        assert f.coefficient((0, 2)) == Fraction(-1)

    def test_leading_minus_and_double_negation(self):
        f = parse_poly("-x^2 + y^2", ("x", "y"))
        assert f.coefficient((2, 0)) == Fraction(-1)
        g = parse_poly("--x^2", ("x", "y"))
        assert g.coefficient((2, 0)) == Fraction(1)

    def test_parentheses_expand(self):
        f = parse_poly("(x + y)*(x - y)", ("x", "y"))
        assert f == parse_poly("x^2 - y^2", ("x", "y"))

    def test_cancellation_inside_expression(self):
        f = parse_poly("x^2 + y^2 - x^2", ("x", "y"))
        assert f.terms == {(0, 2): Fraction(1)}

    def test_three_cusp_expansion_has_six_monomials(self, three_cusp):
        # x^2*y^2 + x^2*z^2 + y^2*z^2 - 2*x*y*z*(x + y + z): three squares of
        # quadratic monomials plus three cross terms.
        assert three_cusp.degree == 4
        assert len(three_cusp.terms) == 6
        assert three_cusp.coefficient((2, 2, 0)) == 1
        assert three_cusp.coefficient((2, 1, 1)) == -2
        assert three_cusp.coefficient((4, 0, 0)) == 0

    def test_whitespace_is_insignificant(self):
        assert parse_poly(" x ^ 2 +y^2", ("x", "y")) == parse_poly(
            "x^2+y^2", ("x", "y")
        )

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_poly("2x", ("x", "y"))
        with pytest.raises(ParseError):
            parse_poly("x y", ("x", "y"))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError, match="w"):
            parse_poly("x^2 + w^2", XYZ)

    def test_error_position_is_one_based(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x^2 + @", ("x", "y"))
        assert info.value.position == 7

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_poly("(x + y", ("x", "y"))

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            parse_poly("x^2 +", ("x", "y"))

    def test_inhomogeneous_rejected_with_both_degrees(self):
        with pytest.raises(NotHomogeneousError) as info:
            parse_poly("x^2 + y^3", ("x", "y"))
        message = str(info.value)
        assert "2" in message and "3" in message

    def test_homogeneous_only_after_expansion(self):
        # (x + y)^2 - x^2 - 2*x*y is homogeneous even though intermediate
        # sums are not checked term by term.
        f = parse_poly("(x + y)*(x + y) - x^2 - 2*x*y", ("x", "y"))
        assert f.terms == {(0, 2): Fraction(1)}

    def test_zero_after_expansion_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            parse_poly("x^2 - x^2", ("x", "y"))

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x^2", ("x", "x"))

    def test_bad_variable_name_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x^2", ("x", "2y"))


class TestArithmetic:
    def test_add_same_degree(self):
        f = parse_poly("x^2", ("x", "y"))
        g = parse_poly("y^2", ("x", "y"))
        assert (f + g).terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}

    def test_add_degree_mismatch_raises(self):
        f = parse_poly("x^2", ("x", "y"))
        g = parse_poly("y^3", ("x", "y"))
        with pytest.raises(ValueError):
            f + g

    def test_mul_degrees_add(self):
        f = parse_poly("x + y", ("x", "y"))
        assert (f * f).terms == {
            (2, 0): Fraction(1),
            (1, 1): Fraction(2),
            (0, 2): Fraction(1),
        }

    def test_sub_to_zero_keeps_degree(self):
        f = parse_poly("x^2", ("x", "y"))
        z = f - f
        assert z.is_zero
        assert z.degree == 2

    def test_scaled(self):
        f = parse_poly("x^2 + y^2", ("x", "y"))
        assert f.scaled(Fraction(1, 2)).coefficient((2, 0)) == Fraction(1, 2)
        assert f.scaled(0).is_zero

    def test_zero_coefficients_never_stored(self):
        f = HomogPoly(2, 2, {(2, 0): Fraction(0), (0, 2): Fraction(1)})
        assert (2, 0) not in f.terms

    def test_immutable(self):
        f = parse_poly("x^2", ("x", "y"))
        with pytest.raises(AttributeError):
            f.degree = 3

    def test_hash_consistent_with_eq(self):
        f = parse_poly("x^2 + 2*x*y", ("x", "y"))
        g = parse_poly("2*x*y + x^2", ("x", "y"))
        assert f == g
        assert hash(f) == hash(g)


class TestDerivatives:
    def test_partial_derivative_basic(self):
        f = parse_poly("x^3 + x*y^2", ("x", "y"))
        fx = f.partial_derivative(0)
        assert fx.terms == {(2, 0): Fraction(3), (0, 2): Fraction(1)}

    def test_vanishing_partial_keeps_declared_degree(self):
        f = parse_poly("y^4", XYZ)
        fx = f.partial_derivative(0)
        assert fx.is_zero
        assert fx.degree == 3

    def test_partials_tuple_length(self, three_cusp):
        parts = partial_derivatives(three_cusp)
        assert len(parts) == 3
        assert all(p.degree == 3 for p in parts)

    def test_euler_identity_on_corpus(self, corpus_polys):
        for name, f in corpus_polys.items():
            assert euler_mismatches(f) == 0, name

    def test_wrong_degree_term_is_rejected(self):
        # a term off the declared grading cannot be built, so euler_mismatches
        # never sees a wrongly graded polynomial
        with pytest.raises(ValueError):
            HomogPoly(2, 2, {(1, 0): 1})

    def test_euler_mismatches_counts_coefficients(self):
        # f = x^2 + 2xy with wrong cached partials (2x, 2y): x*2x + y*2y
        # differs from 2f in the xy and y^2 coefficients
        f = HomogPoly(2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(2)})
        wrong = (
            HomogPoly(2, 1, {(1, 0): Fraction(2)}),
            HomogPoly(2, 1, {(0, 1): Fraction(2)}),
        )
        object.__setattr__(f, "_partials", wrong)
        assert euler_mismatches(f) == 2


class TestPermutation:
    def test_swap_two_variables(self):
        f = parse_poly("x^2*y + z^3", XYZ)
        g = permute_variables(f, (1, 0, 2))
        assert g == parse_poly("y^2*x + z^3", XYZ)

    def test_identity_permutation(self, three_cusp):
        assert permute_variables(three_cusp, (0, 1, 2)) == three_cusp

    def test_three_cusp_is_symmetric(self, three_cusp):
        # invariant under every coordinate swap
        assert permute_variables(three_cusp, (1, 0, 2)) == three_cusp
        assert permute_variables(three_cusp, (0, 2, 1)) == three_cusp

    def test_bad_permutation_rejected(self):
        f = parse_poly("x^2", ("x", "y"))
        with pytest.raises(ValueError):
            permute_variables(f, (0, 0))


class TestText:
    def test_round_trip(self, corpus_polys):
        for name, f in corpus_polys.items():
            again = parse_poly(f.text(), tuple(f"x{i}" for i in range(f.nvars)))
            assert again == f, name

    def test_round_trip_with_names(self, three_cusp):
        assert parse_poly(three_cusp.text(XYZ), XYZ) == three_cusp

    def test_rational_coefficients_survive(self):
        f = parse_poly("1/3*x^2 - 5/7*x*y", ("x", "y"))
        assert parse_poly(f.text(("x", "y")), ("x", "y")) == f

    def test_deterministic_order(self):
        f = parse_poly("y^2 + x^2", ("x", "y"))
        g = parse_poly("x^2 + y^2", ("x", "y"))
        assert f.text() == g.text()
