"""Exact linear algebra over the rationals and prime fields.

The rational path clears denominators once per row and then eliminates in
pure integer arithmetic, stripping the gcd content of every updated row so
entries stay small; pivots are chosen by minimal absolute value.  Fractions
only reappear when the reduced rows are normalised at the very end.  The
prime-field path is a plain Gauss-Jordan with Fermat inverses.  Both are
split into a forward pass, which is all a rank needs, and a back-substitution
that finishes the canonical basis from the same rows (Echelon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "ExactMatrix",
    "Subspace",
    "Echelon",
    "AmbientMismatchError",
    "rref",
    "rank",
    "kernel",
]


class AmbientMismatchError(ValueError):
    """Vectors or subspaces living in different ambient spaces were mixed."""


@dataclass
class ExactMatrix:
    """A dense matrix of field elements.  Shape is explicit so zero-row and
    zero-column matrices round-trip through every operation."""

    nrows: int
    ncols: int
    rows: list[list]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.rows) != self.nrows:
            raise ValueError(f"expected {self.nrows} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError(f"expected {self.ncols} columns, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], ncols: int | None = None) -> "ExactMatrix":
        materialized = [list(r) for r in rows]
        if ncols is None:
            if not materialized:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(materialized[0])
        return cls(len(materialized), ncols, materialized)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, field) -> "ExactMatrix":
        z = field.zero
        return cls(nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int, field) -> "ExactMatrix":
        m = cls.zeros(n, n, field)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self) -> "ExactMatrix":
        cols = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return ExactMatrix(self.ncols, self.nrows, cols)

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]


# --- integer elimination core ------------------------------------------------


def _strip_content(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _row_to_int(row: Sequence) -> list[int]:
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // math.gcd(den, d)
    return _strip_content([x.numerator * (den // x.denominator) for x in row])


def _forward_int(rows: list[list[int]], ncols: int) -> list[int]:
    """In-place forward elimination on integer rows; returns the pivot
    columns.  Rows past the last pivot end up zero.

    Invariant: every row at or below the current front is zero in all
    columns already processed, so updates only touch the tail.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = -1
        best_abs = 0
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best, best_abs = i, a
                    if a == 1:
                        break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv_row = rows[r]
        piv = piv_row[c]
        piv_tail = piv_row[c:]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            tail = rows[i][c:]
            rows[i] = [0] * c + _strip_content(
                [piv * a - v * b for a, b in zip(tail, piv_tail)]
            )
        pivots.append(c)
        r += 1
    return pivots


def _forward_mod(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """In-place forward elimination mod p with unit pivots; returns the
    pivot columns."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = -1
        for i in range(r, nrows):
            if rows[i][c]:
                best = i
                break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv_row = rows[r]
        if piv_row[c] != 1:
            inv = pow(piv_row[c], p - 2, p)
            piv_row = [0] * c + [(v * inv) % p for v in piv_row[c:]]
            rows[r] = piv_row
        piv_tail = piv_row[c:]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            tail = rows[i][c:]
            rows[i] = [0] * c + [(a - v * b) % p for a, b in zip(tail, piv_tail)]
        pivots.append(c)
        r += 1
    return pivots


def _back(rows: list[list[int]], pivots: Sequence[int], p: int) -> list[list]:
    """Back-substitution on the pivot rows of a forward pass.  Mod p the
    pivots are already units; over Q (p = 0) the integer rows are normalised
    to fractions at the end."""
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        piv_row = rows[idx]
        piv = piv_row[c]
        for i in range(idx):
            v = rows[i][c]
            if not v:
                continue
            if p:
                rows[i] = [(a - v * b) % p for a, b in zip(rows[i], piv_row)]
            else:
                rows[i] = _strip_content(
                    [piv * a - v * b for a, b in zip(rows[i], piv_row)]
                )
    if p:
        return rows
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(rows, pivots)]


class Echelon:
    """A matrix after forward elimination only.  Its rank is the pivot
    count; row_space() finishes back-substitution and normalisation from the
    same rows on first request and keeps only the canonical basis after
    that, so rank queries never pay for the second pass."""

    def __init__(self, m: ExactMatrix, field):
        self.ncols = m.ncols
        self.field = field
        if field.characteristic == 0:
            rows = [_row_to_int(row) for row in m.rows]
            pivots = _forward_int(rows, m.ncols)
        else:
            rows = [[field.convert(v) for v in row] for row in m.rows]
            pivots = _forward_mod(rows, m.ncols, field.characteristic)
        del rows[len(pivots):]  # all zero after forward elimination
        self.pivots = tuple(pivots)
        self._rows: list[list] | None = rows
        self._space: Subspace | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def row_space(self) -> "Subspace":
        if self._space is None:
            basis = _back(self._rows, self.pivots, self.field.characteristic)
            self._space = Subspace(
                self.ncols, self.field, tuple(tuple(row) for row in basis), self.pivots
            )
            self._rows = None
        return self._space


def rref(m: ExactMatrix, field) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form (shape preserved, zero rows at the bottom)
    together with the pivot columns."""
    space = Echelon(m, field).row_space()
    rows = [list(row) for row in space.basis]
    rows.extend([field.zero] * m.ncols for _ in range(m.nrows - space.dim))
    return ExactMatrix(m.nrows, m.ncols, rows), space.pivots


def rank(m: ExactMatrix, field) -> int:
    """Rank via forward elimination only (no normalisation pass)."""
    return Echelon(m, field).rank


def kernel(m: ExactMatrix, field) -> "Subspace":
    """Right kernel {v : M v = 0} as a canonical subspace of F^ncols: the
    membership constraints of the row space of M span it."""
    reduced, pivots = rref(m, field)
    basis = tuple(tuple(row) for row in reduced.rows[: len(pivots)])
    row_space = Subspace(m.ncols, field, basis, pivots)
    return Subspace.from_vectors(row_space.membership_constraints(), m.ncols, field)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as a reduced-echelon basis, so equal subspaces
    compare equal and membership tests are a single reduction sweep."""

    ambient_dim: int
    field: object
    basis: tuple[tuple, ...]
    pivots: tuple[int, ...]

    @classmethod
    def zero(cls, ambient_dim: int, field) -> "Subspace":
        return cls(ambient_dim, field, (), ())

    @classmethod
    def full(cls, ambient_dim: int, field) -> "Subspace":
        eye = ExactMatrix.identity(ambient_dim, field)
        return cls(
            ambient_dim,
            field,
            tuple(tuple(row) for row in eye.rows),
            tuple(range(ambient_dim)),
        )

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int, field) -> "Subspace":
        materialized = [list(v) for v in vectors]
        for v in materialized:
            if len(v) != ambient_dim:
                raise AmbientMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return Echelon(ExactMatrix.from_rows(materialized, ncols=ambient_dim), field).row_space()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vector: Sequence) -> list:
        """Residual of the vector after sweeping out all basis components."""
        v = list(vector)
        if len(v) != self.ambient_dim:
            raise AmbientMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        if self.dim == self.ambient_dim:
            return [self.field.zero] * self.ambient_dim
        if self.field.characteristic == 0:
            for row, p in zip(self.basis, self.pivots):
                c = v[p]
                if c:
                    v = [a - c * b for a, b in zip(v, row)]
        else:
            q = self.field.characteristic
            for row, p in zip(self.basis, self.pivots):
                c = v[p]
                if c:
                    v = [(a - c * b) % q for a, b in zip(v, row)]
        return v

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def membership_constraints(self) -> list[list]:
        """One linear functional per non-pivot coordinate; their common
        kernel is exactly this subspace."""
        field = self.field
        pivot_set = set(self.pivots)
        rows = []
        for c in range(self.ambient_dim):
            if c in pivot_set:
                continue
            row = [field.zero] * self.ambient_dim
            row[c] = field.one
            for i, p in enumerate(self.pivots):
                entry = self.basis[i][c]
                if entry:
                    row[p] = field.neg(entry)
            rows.append(row)
        return rows

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatchError("subspaces live in different ambient spaces")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.field)
        constraints = self.membership_constraints() + other.membership_constraints()
        if not constraints:
            return Subspace.full(self.ambient_dim, self.field)
        return kernel(ExactMatrix.from_rows(constraints, ncols=self.ambient_dim), self.field)
