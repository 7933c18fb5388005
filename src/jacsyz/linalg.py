"""Exact linear algebra over the rationals and prime fields.

The rational path is integer-native.  Engine matrices over Q are built with
int entries; a Fraction can only come in through the public entry points
(rank, rref, kernel, Subspace.from_vectors, Subspace.reduce), which clear
the denominators of such a row once.  Elimination then runs in pure integer
arithmetic, stripping the gcd content of every updated row so entries stay
small, with pivots chosen by minimal absolute value.  A canonical basis row
over Q is the primitive integer multiple of its reduced-echelon row, with a
positive pivot: that form is unique, so equal subspaces still compare equal,
and only rref turns it into the normalised Fraction rows it documents.  The
prime-field path packs each row into one int, a slot per column wide enough
that no update carries, and updates it with one big-int multiply-add per
pivot.  Both are split into a forward pass, which is all a rank needs, and
a back-substitution that finishes the canonical basis from the same rows
(Echelon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat
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
        if not self.rows:
            return ExactMatrix(self.ncols, 0, [[] for _ in range(self.ncols)])
        return ExactMatrix(self.ncols, self.nrows, [list(col) for col in zip(*self.rows)])


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


def _row_to_int(row: Sequence) -> Sequence[int]:
    """An integer row on the same line as `row`: an all-int row as it is,
    any other row (int and Fraction entries) cleared of denominators."""
    if set(map(type, row)) <= {int}:
        return row
    row = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return _strip_content([x.numerator * (den // x.denominator) for x in row])


def _forward_int(rows: list[Sequence[int]], ncols: int) -> list[int]:
    """In-place forward elimination on integer rows; returns the pivot
    columns.  Rows past the last pivot end up zero.  Only the outer list is
    modified: an updated row is a new list.

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


def _pack(row: Sequence[int], start: int, nonzero: Sequence[int], width: int) -> int:
    """Slots start.. of a residue row as one int, `width` bytes each, lowest
    column lowest: a sparse row shifted in by its nonzero columns, a dense
    one joined from bytes in C."""
    if 8 * len(nonzero) <= len(row) - start:
        w = 8 * width
        return sum(row[c] << ((c - start) * w) for c in nonzero)
    slots = map(int.to_bytes, islice(row, start, None), repeat(width), repeat("little"))
    return int.from_bytes(b"".join(slots), "little")


def _unpack(y: int, base: int, ncols: int, width: int, scale: int, p: int, sparse: bool):
    """The residue row that is `scale` times y's slots mod p from column base
    on, zero before, and its nonzero columns.  A sparse y is read slot by
    slot from its lowest set bit, a dense one from its bytes."""
    out = [0] * ncols
    if not sparse:
        data = y.to_bytes((ncols - base) * width, "little")
        out[base:] = [
            int.from_bytes(data[i : i + width], "little") * scale % p
            for i in range(0, len(data), width)
        ]
        return out, list(compress(range(ncols), out))
    w = 8 * width
    mask = (1 << w) - 1
    nonzero = []
    while y:
        s = y & mask
        if not s:
            skip = ((y & -y).bit_length() - 1) // w
            y >>= skip * w
            base += skip
            s = y & mask
        if x := s * scale % p:
            out[base] = x
            nonzero.append(base)
        y >>= w
        base += 1
    return out, nonzero


def _forward_mod(rows: list[Sequence[int]], ncols: int, p: int) -> list[int]:
    """In-place forward elimination mod p; returns the pivot columns in
    increasing order and leaves rows[:rank] the matching unit-pivot residue
    rows, zero before each pivot; the rows past them are removed.

    Each row is packed into one int y, a slot per column, kept shifted down
    to its lead slot v, and reduced against the pivots found so far, keyed
    by lead column.  An update is one shift and multiply-add in C,
    y = (y >> w) + (p − v)·tail, tail being the pivot's normalised slots
    past its lead; a lead ≡ 0 mod p is only shifted out.  A lead with no
    pivot is unpacked once, normalised and kept as a new pivot.  No carry: a
    slot starts below p and gains at most (p − 1)² per update, once per
    pivot, so with u = min(nrows, ncols) it stays at most
    (p − 1) + u(p − 1)² < 2^(2·bitlen(p) + bitlen(u)); that many bits,
    rounded up to whole bytes, is the slot width.  The row's own nonzeros
    plus those of the tails added bound its nonzero slots, which picks the
    sparse or dense unpack.
    """
    width = (2 * p.bit_length() + min(len(rows), ncols).bit_length() + 7) // 8
    w = 8 * width
    mask = (1 << w) - 1
    # lead column -> (packed tail, nonzeros in it, normalised row)
    pivots: dict[int, tuple[int, int, list[int]]] = {}
    columns = list(range(ncols))  # compress walks a list faster than a range
    for row in rows:
        if len(pivots) == ncols:  # the remaining rows all reduce to zero
            break
        nonzero = list(compress(columns, row))
        if not nonzero:
            continue
        base = nonzero[0]
        y = _pack(row, base, nonzero, width)
        bound = len(nonzero)
        while y:
            s = y & mask
            if not s:
                skip = ((y & -y).bit_length() - 1) // w
                y >>= skip * w
                base += skip
                s = y & mask
            v = s % p
            if v:
                entry = pivots.get(base)
                if entry is None:
                    break
                y = (y >> w) + (p - v) * entry[0]
                bound += entry[1]
            else:
                y >>= w
            base += 1
        else:
            continue
        sparse = 32 * bound < ncols - base
        out, nonzero = _unpack(y, base, ncols, width, pow(v, -1, p), p, sparse)
        pivots[base] = (_pack(out, base + 1, nonzero[1:], width), len(nonzero) - 1, out)
    leads = sorted(pivots)
    rows[:] = [pivots[c][2] for c in leads]
    return leads


def _back(rows: list[Sequence[int]], pivots: Sequence[int], p: int) -> list[Sequence[int]]:
    """Back-substitution on the pivot rows of a forward pass.  Mod p the
    pivots are already units.  Over Q (p = 0) every row, also one that no
    update touched, ends primitive with a positive pivot."""
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
    out = []
    for row, c in zip(rows, pivots):
        row = _strip_content(row)
        out.append([-v for v in row] if row[c] < 0 else row)
    return out


class Echelon:
    """A matrix after forward elimination only.  Its rank is the pivot
    count; row_space() finishes back-substitution from the same rows on
    first request and keeps only the canonical basis after that, so rank
    queries never pay for the second pass.

    The entries must already be in working form: ints over Q, residues in
    [0, p) mod p.  Engine matrices are built that way; the public entry
    points convert anything else first.  The matrix itself is not modified."""

    def __init__(self, m: ExactMatrix, field):
        self.ncols = m.ncols
        self.field = field
        rows = list(m.rows)
        if field.characteristic == 0:
            pivots = _forward_int(rows, m.ncols)
        else:
            pivots = _forward_mod(rows, m.ncols, field.characteristic)
        del rows[len(pivots):]  # all zero after forward elimination
        self.pivots = tuple(pivots)
        self._rows: list | None = rows
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


def _echelon(m: ExactMatrix, field) -> Echelon:
    """Echelon behind the public entry points, whose input may hold any
    field element: each row is first put in working form.  Over Q that is
    one type check per int row (no per-entry Python loop)."""
    if field.characteristic:
        rows = [[field.convert(v) for v in row] for row in m.rows]
    else:
        rows = [_row_to_int(row) for row in m.rows]
    return Echelon(ExactMatrix(m.nrows, m.ncols, rows), field)


def rref(m: ExactMatrix, field) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form (shape preserved, zero rows at the bottom)
    together with the pivot columns.  Over Q the rows are normalised
    Fractions with pivot entries 1."""
    space = _echelon(m, field).row_space()
    if field.characteristic:
        rows = [list(row) for row in space.basis]
        zero = field.zero
    else:
        rows = [[Fraction(v, row[c]) for v in row] for row, c in zip(space.basis, space.pivots)]
        zero = Fraction(0)
    rows.extend([zero] * m.ncols for _ in range(m.nrows - space.dim))
    return ExactMatrix(m.nrows, m.ncols, rows), space.pivots


def rank(m: ExactMatrix, field) -> int:
    """Rank via forward elimination only (no back-substitution)."""
    return _echelon(m, field).rank


def kernel(m: ExactMatrix, field) -> "Subspace":
    """Right kernel {v : M v = 0} as a canonical subspace of F^ncols: the
    membership constraints of the row space of M span it."""
    constraints = _echelon(m, field).row_space().membership_constraints()
    return Echelon(ExactMatrix(len(constraints), m.ncols, constraints), field).row_space()


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as a canonical echelon basis, so equal
    subspaces compare equal and membership tests are a single reduction
    sweep.  Mod p the basis is the reduced echelon form; over Q each basis
    row is the primitive integer multiple of its reduced echelon row, with a
    positive pivot entry."""

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
        return _echelon(ExactMatrix.from_rows(materialized, ncols=ambient_dim), field).row_space()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vector: Sequence) -> list:
        """Residual of the vector after sweeping out all basis components.
        Over Q the sweep is fraction-free (pivot·v − c·row, content
        stripped), so the result is a nonzero integer multiple of the
        residual: zero exactly when the vector lies in the subspace.  Mod p
        each entry is first converted into the field, a Fraction included."""
        v = list(vector)
        if len(v) != self.ambient_dim:
            raise AmbientMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        if self.dim == self.ambient_dim:
            return [self.field.zero] * self.ambient_dim
        q = self.field.characteristic
        v = [self.field.convert(a) for a in v] if q else _row_to_int(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if not c:
                continue
            if q:
                v = [(a - c * b) % q for a, b in zip(v, row)]
            else:
                piv = row[p]
                v = _strip_content([piv * a - c * b for a, b in zip(v, row)])
        return list(v)

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def membership_constraints(self) -> list[list]:
        """One linear functional per non-pivot coordinate; their common
        kernel is exactly this subspace.  Over Q each functional is an int
        row, scaled by the lcm of the basis pivots it involves."""
        q = self.field.characteristic
        pivot_set = set(self.pivots)
        rows = []
        for c in range(self.ambient_dim):
            if c in pivot_set:
                continue
            hits = [(p, row[p], row[c]) for row, p in zip(self.basis, self.pivots) if row[c]]
            scale = math.lcm(*(piv for _, piv, _ in hits))  # 1 mod p: the pivots are 1
            row = [0] * self.ambient_dim
            row[c] = scale
            for p, piv, entry in hits:
                v = -entry * (scale // piv)
                row[p] = v % q if q else v
            rows.append(row)
        return rows

    # unused in the package; kept because perfbench/spans.py wraps it by attribute
    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatchError("subspaces live in different ambient spaces")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.field)
        constraints = self.membership_constraints() + other.membership_constraints()
        if not constraints:
            return Subspace.full(self.ambient_dim, self.field)
        return kernel(ExactMatrix.from_rows(constraints, ncols=self.ambient_dim), self.field)
