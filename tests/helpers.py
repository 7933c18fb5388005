"""Test-only utilities.

`naive_rref` is a deliberately boring textbook Gauss-Jordan over `Fraction`
(or over GF(p) on int residues when a prime is given), kept independent of
the package's elimination code so the two can be checked against each other.
`koszul_relation_vectors_reference` places each Koszul relation's monomials
by hand, independently of `graded.multiplication_matrix`, which the package's
own builder reuses.  `forward_mod_reference` is the column-by-column list
elimination mod p that the packed-row kernel `linalg._forward_mod` replaced,
kept as its oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from jacsyz.graded import basis_index, monomial_basis
from jacsyz.poly import HomogPoly, partial_derivatives


def naive_rref(
    rows: list[list[Fraction]], ncols: int, p: int | None = None
) -> tuple[list[list[Fraction]], list[int]]:
    if p is None:
        m = [[Fraction(v) for v in row] for row in rows]
    else:
        m = [[int(v) % p for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        lead = m[r][c]
        if p is None:
            m[r] = [v / lead for v in m[r]]
        else:
            m[r] = [v * pow(lead, -1, p) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                if p is not None:
                    m[i] = [v % p for v in m[i]]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    nonzero = [row for row in m if any(row)]
    zero = [row for row in m if not any(row)]
    return nonzero + zero, pivots


def random_dense_homogeneous(
    rng: random.Random, nvars: int, degree: int, lo: int = -5, hi: int = 5
) -> HomogPoly:
    """Dense form with integer coefficients drawn from [lo, hi]; never zero."""
    while True:
        terms = {
            e: Fraction(rng.randint(lo, hi)) for e in monomial_basis(nvars, degree)
        }
        f = HomogPoly(nvars, degree, terms)
        if not f.is_zero:
            return f


def random_matrix(
    rng: random.Random, nrows: int, ncols: int, lo: int = -9, hi: int = 9
) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)
    ]


def koszul_relation_vectors_reference(f: HomogPoly, m: int, field) -> list[list]:
    """The degree-m Koszul relations b·(f_j e_i − f_i e_j) in the block
    coordinates of syzygy.koszul_relation_vectors, each monomial placed by
    hand.  Over Q the partials are scaled by the lcm of f's denominators."""
    d, nvars = f.degree, f.nvars
    if m < d - 1:
        return []
    index = basis_index(nvars, m)
    sdim = len(index)
    scale = 1 if field.characteristic else lcm(*(c.denominator for c in f.terms.values()))
    converted = [
        [(e, field.convert(c * scale)) for e, c in g.terms.items()]
        for g in partial_derivatives(f)
    ]
    vectors = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            for b in monomial_basis(nvars, m - (d - 1)):
                v = [field.zero] * (nvars * sdim)
                for e, c in converted[j]:
                    v[i * sdim + index[tuple(a + x for a, x in zip(b, e))]] = c
                for e, c in converted[i]:
                    v[j * sdim + index[tuple(a + x for a, x in zip(b, e))]] = field.convert(-c)
                vectors.append(v)
    return vectors


def forward_mod_reference(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """In-place forward elimination mod p on residue lists, one column at a
    time, with unit pivots; returns the pivot columns.  rows[:rank] are the
    pivot rows, zero before each pivot, and the rows below end up zero."""
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
