"""Exact elimination cross-checked against a textbook rational oracle."""

import random
from fractions import Fraction

import pytest

from jacsyz import linalg
from jacsyz.fields import QQ, PrimeField
from jacsyz.linalg import (
    AmbientMismatchError,
    Echelon,
    ExactMatrix,
    Subspace,
    kernel,
    rank,
    rref,
)

from helpers import forward_mod_reference, naive_rref, random_matrix

PRIMES = (10007, 65537, 1000003)


def test_from_rows_requires_ncols_when_empty():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([])
    m = ExactMatrix.from_rows([], ncols=4)
    assert m.nrows == 0 and m.ncols == 4


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_transpose_shape():
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert (t.nrows, t.ncols) == (3, 2)
    assert t.rows == [[1, 4], [2, 5], [3, 6]]


class TestRref:
    def test_known_rref(self):
        m = ExactMatrix.from_rows([[2, 4, 6], [1, 2, 4]])
        reduced, pivots = rref(m, QQ)
        assert pivots == (0, 2)
        assert reduced.rows[0] == [Fraction(1), Fraction(2), Fraction(0)]
        assert reduced.rows[1] == [Fraction(0), Fraction(0), Fraction(1)]

    def test_zero_rows_sink_to_bottom(self):
        m = ExactMatrix.from_rows([[0, 0], [1, 1], [2, 2]])
        reduced, pivots = rref(m, QQ)
        assert reduced.nrows == 3
        assert pivots == (0,)
        assert reduced.rows[1] == [Fraction(0), Fraction(0)]
        assert reduced.rows[2] == [Fraction(0), Fraction(0)]

    def test_matches_naive_oracle_random(self):
        rng = random.Random(101)
        for _ in range(40):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            rows = random_matrix(rng, nrows, ncols)
            ours, our_pivots = rref(ExactMatrix.from_rows(rows, ncols=ncols), QQ)
            theirs, their_pivots = naive_rref(rows, ncols)
            assert list(our_pivots) == their_pivots
            assert [list(r) for r in ours.rows] == theirs

    def test_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        ours, pivots = rref(ExactMatrix.from_rows(rows), QQ)
        theirs, their_pivots = naive_rref(rows, 2)
        assert list(pivots) == their_pivots
        assert [list(r) for r in ours.rows] == theirs

    def test_idempotent(self):
        rng = random.Random(7)
        rows = random_matrix(rng, 5, 6)
        once, pivots = rref(ExactMatrix.from_rows(rows), QQ)
        twice, pivots2 = rref(once, QQ)
        assert once.rows == twice.rows
        assert pivots == pivots2


class TestRank:
    def test_rank_transpose_invariant(self):
        rng = random.Random(42)
        for _ in range(30):
            m = ExactMatrix.from_rows(
                random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            )
            assert rank(m, QQ) == rank(m.transpose(), QQ)

    def test_rank_bounds(self):
        rng = random.Random(43)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = ExactMatrix.from_rows(random_matrix(rng, nrows, ncols))
            assert 0 <= rank(m, QQ) <= min(nrows, ncols)

    def test_identity_full_rank(self):
        assert rank(ExactMatrix.identity(5, QQ), QQ) == 5

    def test_modular_rank_never_exceeds_exact(self):
        # specializing mod p can only lose rank
        rng = random.Random(44)
        for _ in range(25):
            m = ExactMatrix.from_rows(
                random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -30, 30)
            )
            exact = rank(m, QQ)
            for p in PRIMES:
                assert rank(m, PrimeField(p)) <= exact

    def test_modular_rank_agrees_generically(self):
        # entries this small cannot hit the bad primes above
        rng = random.Random(45)
        for _ in range(25):
            m = ExactMatrix.from_rows(
                random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            )
            exact = rank(m, QQ)
            assert all(rank(m, PrimeField(p)) == exact for p in PRIMES)


class TestKernel:
    def test_kernel_vectors_annihilated(self):
        rng = random.Random(46)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = ExactMatrix.from_rows(random_matrix(rng, nrows, ncols))
            ker = kernel(m, QQ)
            assert ker.dim == ncols - rank(m, QQ)
            for v in ker.basis:
                product = [
                    sum(a * b for a, b in zip(row, v)) for row in m.rows
                ]
                assert all(entry == 0 for entry in product)

    def test_kernel_of_zero_matrix_is_full(self):
        ker = kernel(ExactMatrix.zeros(3, 4, QQ), QQ)
        assert ker.dim == 4

    def test_kernel_of_identity_is_zero(self):
        ker = kernel(ExactMatrix.identity(4, QQ), QQ)
        assert ker.dim == 0

    def test_kernel_mod_p(self):
        field = PrimeField(10007)
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        ker = kernel(m, field)
        assert ker.dim == 2
        for v in ker.basis:
            assert all(
                sum(a * b for a, b in zip(row, v)) % 10007 == 0 for row in m.rows
            )


class TestSubspace:
    def test_from_vectors_canonicalizes(self):
        a = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3, QQ)
        b = Subspace.from_vectors([[1, 0, -1], [0, 2, 2]], 3, QQ)
        assert a.basis == b.basis
        assert a.dim == 2

    def test_contains(self):
        s = Subspace.from_vectors([[1, 0, 1], [0, 1, 0]], 3, QQ)
        assert s.contains([1, 1, 1])
        assert s.contains([0, 0, 0])
        assert not s.contains([1, 0, 0])

    def test_reduce_is_zero_iff_member(self):
        s = Subspace.from_vectors([[1, 2, 3]], 3, QQ)
        assert all(v == 0 for v in s.reduce([2, 4, 6]))
        assert any(v != 0 for v in s.reduce([1, 1, 1]))

    def test_zero_and_full(self):
        z = Subspace.zero(4, QQ)
        f = Subspace.full(4, QQ)
        assert z.dim == 0 and f.dim == 4
        assert f.contains([5, -3, 2, 7])
        assert not z.contains([1, 0, 0, 0])

    def test_intersect_planes_in_3d(self):
        a = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3, QQ)
        b = Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3, QQ)
        meet = a.intersect(b)
        assert meet.dim == 1
        assert meet.contains([0, 1, 0])

    def test_intersect_with_full_and_zero(self):
        s = Subspace.from_vectors([[1, 1]], 2, QQ)
        assert s.intersect(Subspace.full(2, QQ)).basis == s.basis
        assert s.intersect(Subspace.zero(2, QQ)).dim == 0

    def test_intersect_random_dimension_formula(self):
        # dim(A) + dim(B) = dim(A + B) + dim(A ∩ B)
        rng = random.Random(47)
        for _ in range(20):
            ambient = rng.randint(2, 6)
            va = [
                [Fraction(rng.randint(-4, 4)) for _ in range(ambient)]
                for _ in range(rng.randint(1, ambient))
            ]
            vb = [
                [Fraction(rng.randint(-4, 4)) for _ in range(ambient)]
                for _ in range(rng.randint(1, ambient))
            ]
            a = Subspace.from_vectors(va, ambient, QQ)
            b = Subspace.from_vectors(vb, ambient, QQ)
            joined = Subspace.from_vectors(list(a.basis) + list(b.basis), ambient, QQ)
            meet = a.intersect(b)
            assert a.dim + b.dim == joined.dim + meet.dim
            for v in meet.basis:
                assert a.contains(v) and b.contains(v)

    def test_ambient_mismatch_raises(self):
        a = Subspace.full(3, QQ)
        b = Subspace.full(4, QQ)
        with pytest.raises(AmbientMismatchError):
            a.intersect(b)
        with pytest.raises(AmbientMismatchError):
            a.contains([1, 0])

    def test_membership_constraints_cut_out_subspace(self):
        s = Subspace.from_vectors([[1, 0, 2], [0, 1, -1]], 3, QQ)
        constraints = s.membership_constraints()
        assert len(constraints) == 3 - s.dim
        # every basis vector satisfies every constraint
        for row in constraints:
            for v in s.basis:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # and the constraints reject a non-member
        outside = [1, 0, 0]
        assert any(
            sum(a * b for a, b in zip(row, outside)) != 0 for row in constraints
        )

    def test_subspace_mod_p(self):
        field = PrimeField(10007)
        s = Subspace.from_vectors([[1, 2, 3], [4, 5, 6]], 3, field)
        assert s.dim == 2
        assert s.contains([5, 7, 9])

    def test_reduce_mod_p_converts_fractions(self):
        # 1/3 ≡ 2 and 7/3 ≡ 4 in GF(5): the vector is twice (1, 2), the same
        # line from_vectors builds from it
        field = PrimeField(5)
        s = Subspace.from_vectors([[1, 2]], 2, field)
        v = [Fraction(1, 3), Fraction(7, 3)]
        assert Subspace.from_vectors([v], 2, field) == s
        assert s.contains(v)
        assert s.reduce(v) == [0, 0]


# 2^89 − 1 is prime and above 64 bits
PACKED_PRIMES = (2, 3, 5, 32003, 2**31 - 1, 2**61 - 1, 2**89 - 1)


def _packed_cases(rng: random.Random, p: int):
    """Residue matrices (rows, ncols) for the packed-row kernel: seeded
    dense and sparse ones, empty shapes, zero and duplicate rows, rows that
    are sums of others, a single wide one-entry row, and a worst case for
    slot growth."""
    yield [], 0
    yield [], 5
    yield [[], [], []], 0
    yield [[0] * 4] * 3, 4
    row = [0] * 2000
    row[rng.randrange(2000)] = rng.randrange(1, p)
    yield [row], 2000
    for _ in range(30):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        density = rng.choice((0.1, 0.3, 1.0))
        rows = [
            [rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows >= 2:
            a, b = rng.randrange(p), rng.randrange(p)
            rows.append([(a * x + b * y) % p for x, y in zip(rows[0], rows[1])])
            rows.insert(rng.randrange(len(rows)), list(rows[-1]))  # a duplicate
            rows.insert(rng.randrange(len(rows)), [0] * ncols)
        yield rows, ncols
    # wide and very sparse, like the Koszul matrices: two entries a row
    ncols = 300
    rows = []
    for _ in range(120):
        row = [0] * ncols
        for c in rng.sample(range(ncols), 2):
            row[c] = rng.randrange(1, p)
        rows.append(row)
    yield rows, ncols
    # every update adds (p − 1)² to the last slot: pivots e_k + (p − 1)e_5,
    # then (1, …, 1, p − 1), which takes five updates; for p = 2^31 − 1 that
    # slot needs 65 bits, one past a byte boundary
    n = 6
    rows = [[int(j == k) for j in range(n - 1)] + [p - 1] for k in range(n - 1)]
    rows.append([1] * (n - 1) + [p - 1])
    yield rows, n
    yield [row + [0] for row in rows], n + 1


class TestPackedForwardMod:
    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_matches_list_reference(self, p, monkeypatch):
        field = PrimeField(p)
        rng = random.Random(p % 1000 + 19)
        for rows, ncols in _packed_cases(rng, p):
            m = ExactMatrix(len(rows), ncols, rows)
            snapshot = [list(row) for row in rows]
            packed = Echelon(m, field)
            space = packed.row_space()
            assert m.rows == snapshot  # the input is left as it was
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_forward_mod", forward_mod_reference)
                reference = Echelon(m, field)
                assert packed.pivots == reference.pivots
                assert space == reference.row_space()

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_forward_rows_are_unit_pivot_residue_rows(self, p):
        rng = random.Random(p % 1000 + 20)
        for rows, ncols in _packed_cases(rng, p):
            work = list(rows)
            pivots = linalg._forward_mod(work, ncols, p)
            assert pivots == sorted(set(pivots))
            for row, c in zip(work, pivots):
                assert len(row) == ncols
                assert all(0 <= v < p for v in row)
                assert not any(row[:c]) and row[c] == 1
