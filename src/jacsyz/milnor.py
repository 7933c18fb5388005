"""Invariants of the Jacobian algebra M(f) = S/(∂f/∂x_0, …, ∂f/∂x_n).

For a degree-d form in n+1 variables the smooth reference algebra has
Hilbert series ((1−t^{d−1})/(1−t))^{n+1}: symmetric about T/2 and zero above
T = (n+1)(d−2).  For isolated singularities dim M(f)_k instead stabilises at
the total Tjurina number τ; the degree where it stops matching the smooth
series (ct) and the degree where it reaches τ (st) are the two thresholds
everything else in this package hangs off.

The scan of dim M(f)_k stops at the first degree where a theorem proves the
plateau: Gotzmann persistence once k−1 ≥ τ, or, usually much earlier, the
Bayer–Stillman criterion at m = k−1 (as early as m = reg(J)), tested on the
partials restricted to a hyperplane ℓ_t.  Without either proof the profile
is tagged NOT_CERTIFIED and treated as non-isolated; over Q that is itself
proved (_regularity_certified).

Over Q, each dim J_k at a degree where the partials' multiples are
dependent (k ≥ 2(d−1)) is first taken from one elimination over
GF(SCREEN_PRIME); a rank that reaches the generic value is exact
(_quotient_dim has the proof), any other degree or shortfall is an exact
integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb
from typing import Sequence

from .fields import QQ, PrimeField
from .graded import multiplication_matrix, per_form, slice_dim, space_dim
from .linalg import Echelon
from .poly import HomogPoly, partial_derivatives

__all__ = [
    "NotStabilizedError",
    "SmoothInputError",
    "top_degree",
    "default_k_max",
    "smooth_series_coeff",
    "quotient_series_coeff",
    "jacobian_generators",
    "milnor_dim",
    "MilnorProfile",
    "milnor_profile",
    "total_tjurina",
    "stability_threshold",
    "coincidence_threshold",
    "isolated_check",
]


class NotStabilizedError(RuntimeError):
    """No certificate proves that the Milnor dimensions settle; over Q that
    proves the singularities are not isolated."""


class SmoothInputError(ValueError):
    """The requested invariant is undefined for a smooth hypersurface."""


# isolated_method tags: two proofs of the constant tail, or neither
GOTZMANN = "gotzmann-persistence"
BAYER_STILLMAN = "bayer-stillman"
NOT_CERTIFIED = "not-certified"

# one fixed prime below 2^15: every residue product fits in one 30-bit
# CPython digit, and any prime gives a valid lower bound on the rank over Q
SCREEN_PRIME = PrimeField(32003)


def top_degree(nvars: int, d: int) -> int:
    """Largest degree where the smooth reference algebra is nonzero."""
    return nvars * (d - 2)


def default_k_max(nvars: int, d: int) -> int:
    """Default reporting range: top_degree+1, by which isolated singularities
    have stabilised, plus a margin."""
    return max(top_degree(nvars, d), 0) + 2 * (nvars - 1) + 4


def smooth_series_coeff(n: int, d: int, k: int) -> int:
    """Coefficient of t^k in ((1−t^{d−1})/(1−t))^{n+1}, the Hilbert series
    of the Jacobian algebra of any smooth degree-d form on P^n."""
    if k < 0:
        return 0
    nvars = n + 1
    total = 0
    for j in range(nvars + 1):
        r = k - j * (d - 1)
        if r < 0:
            break
        total += (-1) ** j * comb(nvars, j) * comb(n + r, n)
    return total


def quotient_series_coeff(gen_degrees: Sequence[int], nvars: int, k: int) -> int:
    """Coefficient of t^k in Π_i(1−t^{a_i}) / (1−t)^nvars — the Hilbert
    series of S modulo a regular sequence of forms with the given degrees."""
    if k < 0:
        return 0
    degrees = list(gen_degrees)
    if any(a < 1 for a in degrees):
        raise ValueError("generator degrees must be positive")
    bound = sum(degrees)
    num = [0] * (bound + 1)
    num[0] = 1
    for a in degrees:
        for i in range(bound, a - 1, -1):
            num[i] -= num[i - a]
    return sum(
        num[m] * space_dim(nvars, k - m) for m in range(min(k, bound) + 1)
    )


def jacobian_generators(f: HomogPoly) -> tuple[HomogPoly, ...]:
    """The n+1 first partials of f, zero partials included in place."""
    return partial_derivatives(f)


def _quotient_dim(f: HomogPoly, k: int, field) -> int:
    """dim M(f)_k over `field`, from one rank of the degree-k Jacobian slice.

    Over Q, at k ≥ 2(d−1) with every partial nonzero, the slice of the
    primitive partials is first eliminated over GF(SCREEN_PRIME).  Call that
    integer matrix A and r_k = dim S_k − smooth_series_coeff(n, d, k) the
    generic rank.  Then rank_p(A mod p) ≤ rank_Q(A) ≤ r_k:
    - for any integer matrix, a nonzero minor mod p is a nonzero minor over
      Q, so the rank mod p is at most the rank over Q;
    - making the partials primitive rescales whole row blocks, which
      changes no rank over Q, so rank_Q(A) = dim (J_f)_k;
    - rank_Q (J_f)_k is lower semicontinuous in the coefficients of f
      (rank ≥ r is the nonvanishing of some r×r minor), so its maximum is
      attained on a dense open set of forms; that set meets the dense open
      set of smooth forms, so the maximum is the smooth value r_k.
    So a rank mod p equal to r_k is the exact rank, and dim M(f)_k is the
    smooth value; a shortfall (a singular f, or an unlucky p) falls back to
    the exact slice.  Below 2(d−1) the rows do not exceed r_k, so there are
    no Koszul relations for fraction-free elimination to reduce to zero,
    and those exact slices are the ones later stages reuse: they are
    computed directly.  A zero partial makes f a cone, singular at its
    vertex, and such an f is not screened either.  Over GF(p) the slice
    rank is used as it is."""
    gens = jacobian_generators(f)
    nvars, d = f.nvars, f.degree
    if field.characteristic == 0 and k >= 2 * (d - 1) and not any(g.is_zero for g in gens):
        smooth = smooth_series_coeff(nvars - 1, d, k)
        primitive = [g.primitive() for g in gens]
        rows = multiplication_matrix(primitive, k, SCREEN_PRIME).transpose()
        if Echelon(rows, SCREEN_PRIME).rank == space_dim(nvars, k) - smooth:
            return smooth
    return space_dim(nvars, k) - slice_dim(gens, k, field)


def milnor_dim(f: HomogPoly, k: int, field=QQ) -> int:
    """dim M(f)_k = dim S_k − dim (J_f)_k, read from the Milnor profile:
    every degree it covers, and every higher degree once the profile is
    certified by either proof (the plateau it filled in).  Only other
    degrees, or forms the profile rejects, cost a rank (_quotient_dim)."""
    if k < 0:
        return 0
    if not f.is_zero and f.degree >= 2:
        profile = _milnor_profile(f, None, field)
        if k <= profile.computed_max:
            return profile.dims[k]
        if profile.isolated:
            return profile.dims[-1]
    return _quotient_dim(f, k, field)


@dataclass(frozen=True)
class MilnorProfile:
    """Degree-wise dimensions of M(f) next to the smooth reference, with the
    isolatedness verdict.  dims/smooth_dims run 0..computed_max, which is at
    least k_max (the reporting range) and top_degree+2.  isolated_method
    names the proof: GOTZMANN or BAYER_STILLMAN when the scan stopped at a
    plateau that proof certified (_persistence_certified,
    _regularity_certified) and the dims above it repeat it; NOT_CERTIFIED,
    which makes `isolated` False, when neither proof came up and every dim
    was computed."""

    nvars: int
    n: int
    d: int
    top_degree: int
    k_max: int
    dims: tuple[int, ...]
    smooth_dims: tuple[int, ...]
    tau: int | None
    st: int | None
    ct: int | None
    smooth_input: bool
    isolated_method: str

    @property
    def isolated(self) -> bool:
        return self.isolated_method != NOT_CERTIFIED

    @property
    def computed_max(self) -> int:
        return len(self.dims) - 1


def _persistence_certified(dims: list[int], d: int) -> bool:
    """Whether dims[0..k] already fix every higher dim of M(f) at dims[k].

    Either dims[k] = 0, so J_k = S_k and so J_j = S_j for all j ≥ k; or
    dims[k−1] = dims[k] = τ with k−1 ≥ max(d−1, τ).  In the second case J is
    generated in degrees ≤ k−1, and τ ≤ k−1 makes the Macaulay bound
    τ^⟨k−1⟩ equal to τ, so dims[k] meets that bound and Gotzmann's
    persistence theorem (Math. Z. 158, 1978; Bruns–Herzog §4.3) keeps every
    later dim at τ."""
    k = len(dims) - 1
    tau = dims[k]
    if tau == 0:
        return True
    return k >= 1 and dims[k - 1] == tau and k - 1 >= max(d - 1, tau)


def _on_hyperplane(g: HomogPoly, t: int) -> HomogPoly:
    """g restricted to ℓ_t = x_n − Σ_{i<n} t^{i+1}·x_i = 0, as a form in
    x_0..x_{n−1}: x_n ↦ Σ_{i<n} t^{i+1}·x_i."""
    n = g.nvars - 1
    line = HomogPoly(
        n, 1, {tuple(int(i == j) for j in range(n)): t ** (i + 1) for i in range(n)}
    )
    powers = [HomogPoly(n, 0, {(0,) * n: 1})]
    terms: dict = {}
    for e, c in g.terms.items():
        while len(powers) <= e[n]:
            powers.append(powers[-1] * line)
        for e2, c2 in powers[e[n]].terms.items():
            key = tuple(a + b for a, b in zip(e[:n], e2))
            terms[key] = terms.get(key, 0) + c * c2
    return HomogPoly(n, g.degree, terms)


def _regularity_certified(
    gens: tuple[HomogPoly, ...], dims: list[int], d: int, field, sections: dict
) -> bool:
    """Whether dims[0..k] fix every higher dim of M(f) at dims[k], by
    Bayer–Stillman at m = k−1.

    The test: m ≥ d−1, dims[m−1] ≥ dims[m] = dims[k] > 0, and for some
    member ℓ of the family ℓ_t = x_n − Σ_{i<n} t^{i+1}·x_i (t = 1, 2, …)
    the partials restricted to ℓ = 0 span every degree-m form in
    x_0..x_{n−1}, that is (J+ℓ)_m = S_m.  Then:
    - (J+ℓ)_j = S_j for every j ≥ m, so ℓ maps M_j onto M_{j+1}; equal
      dims at m make ℓ: M_m → M_{m+1} injective, so (J:ℓ)_m = J_m.  As
      ℓ: M_{m−1} → M_m is onto too, dims[m−1] < dims[m] rules out every
      member before any restriction;
    - J is generated in degree d−1 ≤ m, so Bayer–Stillman (Invent. Math.
      87, 1987, Thm 1.10, with h_1 = ℓ) makes J m-regular.  From m on the
      Hilbert function of M(f) is therefore a polynomial; it is also
      nonincreasing and nonnegative, so it is constant and V(J) is finite.
    Over Q one of the first n·τ+1 members avoids all (at most τ) singular
    points, since a point lies on at most n members; and for singular input
    reg(J) ≤ T+1, as reg(S/J) = max(T−ct, sat−1) ≤ T (the closed form every
    report checks).  So every isolated input over Q is certified by degree
    T+2 ≤ k_top, if Gotzmann has not certified it before.  Over GF(p) only
    t mod p matters, so at most p members are tried, and small fields may
    have none that works; a flat tail is then left to Gotzmann.

    `sections` keeps the restricted partials per t across the scan; the
    rows ≥ cols count rejects most degrees before any restriction."""
    k = len(dims) - 1
    m = k - 1
    n = gens[0].nvars - 1
    if n < 1 or m < d - 1 or not dims[k] or dims[m] != dims[k]:
        return False
    if dims[m - 1] < dims[m]:
        return False
    usable = [g for g in gens if not g.is_zero]
    cols = space_dim(n, m)
    if len(usable) * space_dim(n, m - (d - 1)) < cols:
        return False
    members = n * dims[k] + 1
    if field.characteristic:
        members = min(members, field.characteristic)
    for t in range(1, members + 1):
        if t not in sections:
            restricted = (_on_hyperplane(g, t) for g in usable)
            sections[t] = tuple(
                g.primitive() if field.characteristic == 0 else g
                for g in restricted
                if not g.is_zero
            )
        if not sections[t]:
            continue
        m_rows = multiplication_matrix(sections[t], m, field).transpose()
        if Echelon(m_rows, field).rank == cols:
            return True
    return False


@per_form
def _milnor_profile(f: HomogPoly, k_max: int | None, field) -> MilnorProfile:
    if f.is_zero:
        raise ValueError("cannot analyze the zero polynomial")
    if f.degree < 2:
        raise ValueError("hypersurface degree must be at least 2")
    nvars = f.nvars
    n = nvars - 1
    d = f.degree
    T = top_degree(nvars, d)
    k_report = default_k_max(nvars, d) if k_max is None else k_max
    if k_report < 0:
        raise ValueError("k_max must be nonnegative")
    k_top = max(k_report, T + 2)

    gens = jacobian_generators(f)
    scan: list[int] = []
    sections: dict[int, tuple[HomogPoly, ...]] = {}
    method = NOT_CERTIFIED
    # past k_top only a flat tail is scanned on: Gotzmann certifies it by
    # degree k_top + dims[k_top] + 1 unless a dim changes first
    for k in count():
        scan.append(_quotient_dim(f, k, field))
        if _persistence_certified(scan, d):
            method = GOTZMANN
        elif _regularity_certified(gens, scan, d, field, sections):
            method = BAYER_STILLMAN
        elif k < k_top or scan[k] == scan[k - 1]:
            continue
        else:
            break
        scan += [scan[k]] * (k_top - k)
        break
    isolated = method != NOT_CERTIFIED
    dims = tuple(scan)
    smooth = tuple(smooth_series_coeff(n, d, k) for k in range(len(dims)))

    tail = dims[-1]
    s = len(dims) - 1
    while s > 0 and dims[s - 1] == tail:
        s -= 1
    smooth_input = dims == smooth
    tau = tail if isolated else None
    st = s if isolated else None
    ct: int | None = None
    if isolated and not smooth_input:
        first = next(k for k in range(len(dims)) if dims[k] != smooth[k])
        ct = first - 1
    return MilnorProfile(
        nvars=nvars,
        n=n,
        d=d,
        top_degree=T,
        k_max=k_report,
        dims=dims,
        smooth_dims=smooth,
        tau=tau,
        st=st,
        ct=ct,
        smooth_input=smooth_input,
        isolated_method=method,
    )


def milnor_profile(f: HomogPoly, k_max: int | None = None, field=QQ) -> MilnorProfile:
    return _milnor_profile(f, k_max, field)


def _require_isolated(f: HomogPoly, field) -> MilnorProfile:
    profile = _milnor_profile(f, None, field)
    if not profile.isolated:
        raise NotStabilizedError(
            "Milnor dimensions not certified constant: "
            "non-isolated singularities"
        )
    return profile


def total_tjurina(f: HomogPoly, field=QQ) -> int:
    """Stable value of dim M(f)_k; 0 exactly for smooth f."""
    return _require_isolated(f, field).tau


def stability_threshold(f: HomogPoly, field=QQ) -> int:
    """Least q with dim M(f)_k = τ for all k ≥ q."""
    return _require_isolated(f, field).st


def coincidence_threshold(f: HomogPoly, field=QQ) -> int:
    """Largest q with dim M(f)_k matching the smooth series for all k ≤ q."""
    profile = _require_isolated(f, field)
    if profile.smooth_input:
        raise SmoothInputError("coincidence threshold is undefined for smooth input")
    return profile.ct


def isolated_check(f: HomogPoly, field=QQ) -> tuple[bool, str]:
    """Isolatedness verdict plus its method tag: True with a proof under
    GOTZMANN or BAYER_STILLMAN, False under NOT_CERTIFIED.  Over Q every
    isolated input is certified (_regularity_certified), so NOT_CERTIFIED
    proves the singular locus is not finite; over GF(p) it only says that
    no proof came up."""
    profile = _milnor_profile(f, None, field)
    return profile.isolated, profile.isolated_method
