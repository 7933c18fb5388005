"""Graded slices of polynomial rings and ideals, and the owner of all
per-form cached state.

Everything here is degree-truncated linear algebra: a degree-k slice of an
ideal is the column span of a multiplication matrix in the monomial basis of
S_k.  Each slice is eliminated once, forward only, with the generator
multiples as rows: its dimension is the pivot count, and its canonical
subspace is finished from the same rows on first request.  Over Q each
generator enters as its primitive integer multiple, which spans the same
ideal, so every matrix entry is an int.  Slices live in the per-form table
of their generator tuple and field (form_table), next to everything the
higher layers derive from that ideal; only the last FORMS_KEPT tables are
kept.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from math import comb
from typing import Sequence

from .fields import QQ
# rank is unused here but stays importable: perfbench/spans.py wraps it by
# module attribute
from .linalg import Echelon, ExactMatrix, Subspace, rank
from .poly import Exps, HomogPoly, partial_derivatives

__all__ = [
    "DegreeTooLowError",
    "space_dim",
    "monomial_basis",
    "basis_index",
    "multiplication_matrix",
    "slice_dim",
    "ideal_slice",
    "FORMS_KEPT",
    "form_table",
    "per_form",
]

# A batch only revisits the form in hand (an analysis asks for the same
# slices and profiles many times, the next form shares none of them), so a
# few tables suffice; older ones are dropped whole, which bounds memory.
FORMS_KEPT = 2


class DegreeTooLowError(ValueError):
    """A generator's degree exceeds the requested matrix degree."""


def space_dim(nvars: int, k: int) -> int:
    """Dimension of the degree-k piece of a polynomial ring in nvars variables."""
    if k < 0:
        return 0
    return comb(nvars - 1 + k, nvars - 1)


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple[Exps, ...]:
    """All exponent tuples of the given total degree, lexicographically
    increasing.  Length is space_dim(nvars, degree)."""
    if degree < 0:
        return ()
    if nvars == 1:
        return ((degree,),)
    out: list[Exps] = []
    for e0 in range(degree + 1):
        for rest in monomial_basis(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(nvars: int, degree: int) -> dict[Exps, int]:
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


def multiplication_matrix(gens: Sequence[HomogPoly], degree: int, field=QQ) -> ExactMatrix:
    """Matrix of (a_0, …, a_r) ↦ Σ a_i·g_i landing in S_degree.

    Rows are indexed by the degree-`degree` monomial basis; columns by pairs
    (generator i, monomial of degree `degree` − deg g_i), generator-major.
    A zero generator keeps its (all-zero) column block so that kernel
    coordinates always mean a full coefficient tuple.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("generators live in different rings")
        if g.degree > degree:
            raise DegreeTooLowError(
                f"generator of degree {g.degree} cannot land in degree {degree}"
            )
    index = basis_index(nvars, degree)
    nrows = len(index)
    ncols = sum(space_dim(nvars, degree - g.degree) for g in gens)
    zero = field.zero
    data = [[zero] * ncols for _ in range(nrows)]
    col = 0
    for g in gens:
        complements = monomial_basis(nvars, degree - g.degree)
        if g.is_zero:
            col += len(complements)
            continue
        converted = [(e, field.convert(c)) for e, c in g.terms.items()]
        for mu in complements:
            for e, cv in converted:
                target = tuple(a + b for a, b in zip(mu, e))
                data[index[target]][col] = cv
            col += 1
    return ExactMatrix(nrows, ncols, data)


@lru_cache(maxsize=FORMS_KEPT)
def form_table(gens: tuple[HomogPoly, ...], field) -> dict:
    """The cache of everything derived from the ideal of `gens` over
    `field`: its slices, keyed by degree, and the per_form results of the
    higher layers, keyed by (function name, argument)."""
    return {}


def per_form(fn):
    """Decorator: fn(f, arg, field) is computed once per table of f's
    partials over field, and kept as long as that table is.  The partials
    key f's table: over Q they determine f (d·f = Σ x_i·∂f/∂x_i), and they
    are the generators its slices are built from."""

    @wraps(fn)
    def memo(f: HomogPoly, arg, field):
        if f.degree < 1:  # no partials to key on; fn rejects such forms
            return fn(f, arg, field)
        table = form_table(partial_derivatives(f), field)
        key = (fn.__name__, arg)
        if key not in table:
            table[key] = fn(f, arg, field)
        return table[key]

    return memo


def _usable(gens: Sequence[HomogPoly], degree: int) -> tuple[HomogPoly, ...]:
    # generators of degree > `degree` (or identically zero) contribute nothing
    return tuple(g for g in gens if not g.is_zero and g.degree <= degree)


def _slice(gens: tuple[HomogPoly, ...], degree: int, field) -> Echelon:
    table = form_table(gens, field)
    if degree not in table:
        usable = _usable(gens, degree)
        if usable:
            if field.characteristic == 0:
                # rescaling a generator keeps the ideal; primitive integer
                # generators make every entry an int
                usable = tuple(g.primitive() for g in usable)
            m = multiplication_matrix(usable, degree, field).transpose()
        else:
            m = ExactMatrix(0, space_dim(gens[0].nvars, degree), [])
        table[degree] = Echelon(m, field)
    return table[degree]


def slice_dim(gens: Sequence[HomogPoly], degree: int, field=QQ) -> int:
    """dim of the degree-`degree` piece of the ideal the generators span."""
    if degree < 0 or not gens:
        return 0
    return _slice(tuple(gens), degree, field).rank


def ideal_slice(gens: Sequence[HomogPoly], degree: int, field=QQ) -> Subspace:
    """The degree slice itself, as a canonical subspace of S_degree in
    monomial coordinates."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if degree < 0:
        return Subspace.zero(0, field)
    return _slice(gens, degree, field).row_space()
