"""Relations among the partial derivatives: all of them, the Koszul ones,
and the essential quotient.

A degree-m relation is a tuple (a_0, …, a_n) of degree-m forms with
Σ a_i·f_i = 0; Koszul relations are the span of b·(f_j e_i − f_i e_j).  The
essential dimension er = ar − kr admits an independent second route through
Milnor dimensions (koszul_cohomology_dim), and the agreement of the two is
one of the package's central self-checks.  The profile tabulates ar, kr and
er over the relation degrees 0..n(d−2)+2, which on isolated input is enough
to read off the minimal essential degree mdr (see SyzygyProfile).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
# slice_dim and rank are unused here but stay importable: perfbench/spans.py
# wraps both by module attribute
from .graded import multiplication_matrix, per_form, slice_dim, space_dim
from .linalg import Echelon, ExactMatrix, rank
from .milnor import milnor_dim, smooth_series_coeff
from .poly import HomogPoly, partial_derivatives

__all__ = [
    "ar_dim",
    "kr_dim",
    "koszul_relation_vectors",
    "koszul_cohomology_dim",
    "SyzygyProfile",
    "syzygy_profile",
]


def ar_dim(f: HomogPoly, m: int, field=QQ) -> int:
    """Dimension of the space of degree-m relations among the partials."""
    if m < 0:
        return 0
    k = m + f.degree - 1
    ideal_dim = space_dim(f.nvars, k) - milnor_dim(f, k, field)
    return f.nvars * space_dim(f.nvars, m) - ideal_dim


def koszul_relation_vectors(f: HomogPoly, m: int, field=QQ) -> list[list]:
    """Spanning set of the degree-m Koszul relations b·(f_j e_i − f_i e_j),
    b running over monomials of degree m − (d−1), in block coordinates:
    coefficient vector of a_0 in the degree-m monomial basis, then a_1, and
    so on.  Entries are in working form: ints over Q, residues mod p."""
    d = f.degree
    nvars = f.nvars
    if m < d - 1:
        return []
    # over Q the primitive form's partials are f's times one common factor:
    # every entry is an int and each vector is still a relation among f's
    gens = partial_derivatives(f.primitive() if field.characteristic == 0 else f)
    # generator-major: block k holds the rows b·f_k, b in monomial order
    rows = multiplication_matrix(gens, m, field).transpose().rows
    nb = space_dim(nvars, m - (d - 1))
    blocks = [rows[k * nb : (k + 1) * nb] for k in range(nvars)]
    sdim = space_dim(nvars, m)
    q = field.characteristic
    vectors = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            for fj_b, fi_b in zip(blocks[j], blocks[i]):
                v = [field.zero] * (nvars * sdim)
                v[i * sdim : (i + 1) * sdim] = fj_b
                v[j * sdim : (j + 1) * sdim] = [-c % q for c in fi_b] if q else [-c for c in fi_b]
                vectors.append(v)
    return vectors


def kr_dim(f: HomogPoly, m: int, field=QQ) -> int:
    """Dimension of the degree-m Koszul (trivial) relations."""
    if m < 0:
        return 0
    vectors = koszul_relation_vectors(f, m, field)
    if not vectors:
        return 0
    # the vectors are in working form: no conversion pass on the way in
    return Echelon(ExactMatrix(len(vectors), len(vectors[0]), vectors), field).rank


def koszul_cohomology_dim(f: HomogPoly, j: int, field=QQ) -> int:
    """Degree-j dimension of the next-to-top cohomology of the Koszul complex
    of the partials, computed as a difference of Milnor dimensions.  Under
    the index shift j = m + n this is an independent oracle for
    er = ar_dim − kr_dim."""
    n = f.nvars - 1
    k = j + f.degree - n - 1
    if k < 0:
        return 0
    return milnor_dim(f, k, field) - smooth_series_coeff(n, f.degree, k)


@dataclass(frozen=True)
class SyzygyProfile:
    """ar/kr/er dimensions for relation degrees 0..m_max = n(d−2)+2, and mdr,
    the least m ≤ m_max with er_m > 0 (None when there is none).

    On isolated input mdr is the least degree of any essential relation.
    er_m = dim M(f)_{m+d−1} − dim M(f_s)_{m+d−1} (koszul_cohomology_dim; the
    report's `er_matches_milnor_difference` row), and for m ≥ n(d−2) the
    degree m+d−1 ≥ T+1 lies past the smooth series, which ends at T, and past
    st ≤ T+1 (the `st_upper_bound` row), so er_m = τ there.  Either τ > 0 and
    er_{n(d−2)} > 0 inside the table, or τ = 0 and er vanishes past it.  On
    input that is not isolated, mdr is only the least such m within the table.
    """

    m_max: int
    ar_dims: tuple[int, ...]
    kr_dims: tuple[int, ...]
    er_dims: tuple[int, ...]
    mdr: int | None


@per_form
def _syzygy_profile(f: HomogPoly, field) -> SyzygyProfile:
    if f.degree < 2:
        raise ValueError("hypersurface degree must be at least 2")
    m_max = (f.nvars - 1) * (f.degree - 2) + 2
    ar = tuple(ar_dim(f, m, field) for m in range(m_max + 1))
    kr = tuple(kr_dim(f, m, field) for m in range(m_max + 1))
    er = tuple(a - k for a, k in zip(ar, kr))
    return SyzygyProfile(
        m_max=m_max,
        ar_dims=ar,
        kr_dims=kr,
        er_dims=er,
        mdr=next((m for m, e in enumerate(er) if e > 0), None),
    )


def syzygy_profile(f: HomogPoly, field=QQ) -> SyzygyProfile:
    return _syzygy_profile(f, field)
