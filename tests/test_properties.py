"""Property-based tests for the algebra core."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacsyz.fields import QQ, PrimeField
from jacsyz.graded import monomial_basis
from jacsyz.linalg import Echelon, ExactMatrix, Subspace, kernel, rank, rref
from jacsyz.milnor import milnor_dim
from jacsyz.poly import HomogPoly, euler_mismatches, parse_poly, permute_variables

from helpers import naive_rref


@st.composite
def homog_polys(draw, max_nvars: int = 3, max_degree: int = 4):
    nvars = draw(st.integers(2, max_nvars))
    degree = draw(st.integers(1, max_degree))
    basis = monomial_basis(nvars, degree)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=len(basis),
            max_size=len(basis),
        )
    )
    assume(any(coeffs))
    terms = {e: c for e, c in zip(basis, coeffs) if c}
    return HomogPoly(nvars, degree, terms)


@st.composite
def int_matrices(draw, max_dim: int = 5, bound: int = 9, min_dim: int = 1):
    nrows = draw(st.integers(min_dim, max_dim))
    ncols = draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ExactMatrix.from_rows(
        [[Fraction(v) for v in row] for row in rows], ncols=ncols
    )


class TestPolynomials:
    @given(homog_polys())
    @settings(max_examples=60, deadline=None)
    def test_text_round_trip(self, f):
        names = tuple(f"x{i}" for i in range(f.nvars))
        assert parse_poly(f.text(), names) == f

    @given(homog_polys())
    @settings(max_examples=60, deadline=None)
    def test_euler_identity(self, f):
        assert euler_mismatches(f) == 0

    @given(homog_polys(max_degree=3), homog_polys(max_degree=3))
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, f, g):
        assume(f.nvars == g.nvars)
        product = f * g
        for i in range(f.nvars):
            lhs = product.partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs

    @given(homog_polys(max_nvars=3, max_degree=3), st.permutations(range(3)))
    @settings(max_examples=25, deadline=None)
    def test_milnor_dims_permutation_invariant(self, f, perm):
        assume(f.nvars == 3)
        assume(f.degree >= 2)
        g = permute_variables(f, tuple(perm))
        for k in range(4):
            assert milnor_dim(f, k) == milnor_dim(g, k)


class TestElimination:
    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_matches_textbook_oracle(self, m):
        ours, pivots = rref(m, QQ)
        theirs, their_pivots = naive_rref([list(r) for r in m.rows], m.ncols)
        assert list(pivots) == their_pivots
        assert [list(r) for r in ours.rows] == theirs

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose_invariant(self, m):
        assert rank(m, QQ) == rank(m.transpose(), QQ)

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        ker = kernel(m, QQ)
        assert ker.dim == m.ncols - rank(m, QQ)
        for v in ker.basis:
            assert all(
                sum(a * b for a, b in zip(row, v)) == 0 for row in m.rows
            )

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rref_idempotent(self, m):
        once, pivots = rref(m, QQ)
        twice, pivots2 = rref(once, QQ)
        assert once.rows == twice.rows and pivots == pivots2

    @given(int_matrices(max_dim=4, bound=20))
    @settings(max_examples=40, deadline=None)
    def test_modular_rank_bounded_by_exact(self, m):
        exact = rank(m, QQ)
        for p in (10007, 1000003):
            assert rank(m, PrimeField(p)) <= exact

    @given(int_matrices(min_dim=0), st.sampled_from([None, 3, 1000003]))
    @settings(max_examples=80, deadline=None)
    def test_echelon_matches_textbook_oracle(self, m, p):
        # one forward pass serves the rank; the canonical basis is finished
        # from the same rows; zero-row and zero-column shapes included.
        # Echelon takes working-form entries: ints over Q, residues mod p
        field = QQ if p is None else PrimeField(p)
        working = ExactMatrix.from_rows(
            [[field.convert(v) for v in row] for row in m.rows], ncols=m.ncols
        )
        echelon = Echelon(working, field)
        theirs, their_pivots = naive_rref([list(r) for r in m.rows], m.ncols, p)
        assert echelon.rank == len(their_pivots)
        space = echelon.row_space()
        assert list(space.pivots) == their_pivots
        if p is None:
            # over Q: the primitive integer multiple of each reduced row,
            # with a positive pivot
            for row, c, their_row in zip(space.basis, space.pivots, theirs):
                assert all(type(v) is int for v in row)
                assert row[c] > 0 and math.gcd(*row) == 1
                assert [Fraction(v, row[c]) for v in row] == their_row
        else:
            assert [list(r) for r in space.basis] == theirs[: len(their_pivots)]
        assert echelon.rank == space.dim

    @given(
        int_matrices(max_dim=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        st.sampled_from([None, 1000003]),
    )
    @settings(max_examples=80, deadline=None)
    def test_contains_matches_rank_oracle(self, m, mix, noise, p):
        # a combination of the rows, sometimes pushed off by a noise vector;
        # it lies in the span exactly when appending it keeps the rank
        field = QQ if p is None else PrimeField(p)
        rows = [list(r) for r in m.rows]
        vector = [
            sum(c * row[j] for c, row in zip(mix, rows)) + noise[j] for j in range(m.ncols)
        ]
        if p is not None:
            vector = [field.convert(v) for v in vector]
        space = Subspace.from_vectors(rows, m.ncols, field)
        before = len(naive_rref(rows, m.ncols, p)[1])
        after = len(naive_rref(rows + [vector], m.ncols, p)[1])
        assert space.contains(vector) == (before == after)

    @given(int_matrices(min_dim=0))
    @settings(max_examples=60, deadline=None)
    def test_from_vectors_ignores_row_scaling(self, m):
        plain = Subspace.from_vectors(m.rows, m.ncols, QQ)
        for scale in (Fraction(1, 2), -3):
            scaled = [[scale * v for v in row] for row in m.rows]
            assert Subspace.from_vectors(scaled, m.ncols, QQ) == plain
        mixed = [
            [(Fraction(1, 2) if i % 2 else -3) * v for v in row] for i, row in enumerate(m.rows)
        ]
        assert Subspace.from_vectors(mixed, m.ncols, QQ) == plain
