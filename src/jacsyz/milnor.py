"""Invariants of the Jacobian algebra M(f) = S/(∂f/∂x_0, …, ∂f/∂x_n).

For a degree-d form in n+1 variables the smooth reference algebra has
Hilbert series ((1−t^{d−1})/(1−t))^{n+1}: symmetric about T/2 and zero above
T = (n+1)(d−2).  For isolated singularities dim M(f)_k instead stabilises at
the total Tjurina number τ; the degree where it stops matching the smooth
series (ct) and the degree where it reaches τ (st) are the two thresholds
everything else in this package hangs off.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .fields import QQ
from .graded import per_form, slice_dim, space_dim
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
    """Milnor dimensions never settled inside the inspection window —
    either the singularities are not isolated or k_max is too small."""


class SmoothInputError(ValueError):
    """The requested invariant is undefined for a smooth hypersurface."""


# isolated_method tags: a proof of the constant tail, or the fallback test
GOTZMANN = "gotzmann-persistence"
HEURISTIC = "heuristic-window"


def top_degree(nvars: int, d: int) -> int:
    """Largest degree where the smooth reference algebra is nonzero."""
    return nvars * (d - 2)


def default_k_max(nvars: int, d: int) -> int:
    """Default reporting range: top_degree+1, by which isolated singularities
    have stabilised, plus a margin that also holds the fallback test's window."""
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


def milnor_dim(f: HomogPoly, k: int, field=QQ) -> int:
    """dim M(f)_k = dim S_k − dim (J_f)_k, read from the Milnor profile:
    every degree it covers, and every higher degree once the profile is
    certified.  Only other degrees, or forms the profile rejects, cost a
    slice rank."""
    if k < 0:
        return 0
    if not f.is_zero and f.degree >= 2:
        profile = _milnor_profile(f, None, field)
        if k <= profile.computed_max:
            return profile.dims[k]
        if profile.isolated_method == GOTZMANN:
            return profile.dims[-1]
    return space_dim(f.nvars, k) - slice_dim(jacobian_generators(f), k, field)


@dataclass(frozen=True)
class MilnorProfile:
    """Degree-wise dimensions of M(f) next to the smooth reference, with the
    stabilisation verdict.  dims/smooth_dims run 0..computed_max, which is at
    least k_max (the reporting range) and always covers the window past
    top_degree.  isolated_method is GOTZMANN when the scan stopped at a
    proven plateau (_persistence_certified) and the dims above it repeat
    it; HEURISTIC when every dim was computed and the verdict rests on the
    window test alone."""

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
    stabilized: bool
    isolated: bool
    isolated_method: str = HEURISTIC

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
    window = n + 2
    k_top = max(k_report, T + n + 2)

    gens = jacobian_generators(f)
    scan: list[int] = []
    certified = False
    for k in range(k_top + 1):
        scan.append(space_dim(nvars, k) - slice_dim(gens, k, field))
        if _persistence_certified(scan, d):
            certified = True
            scan += [scan[k]] * (k_top - k)
            break
    dims = tuple(scan)
    smooth = tuple(smooth_series_coeff(n, d, k) for k in range(k_top + 1))

    tail = dims[-1]
    s = len(dims) - 1
    while s > 0 and dims[s - 1] == tail:
        s -= 1
    if certified:
        stabilized = isolated = True
    else:
        stabilized = len(dims) - s >= window
        # isolated singularities force stabilisation by T+1; a later (or
        # absent) plateau means the singular locus is positive-dimensional
        isolated = stabilized and s <= T + 1
    smooth_input = dims == smooth
    tau = tail if isolated else None
    st = s if isolated else None
    ct: int | None = None
    if isolated and not smooth_input:
        first = next(k for k in range(k_top + 1) if dims[k] != smooth[k])
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
        stabilized=stabilized,
        isolated=isolated,
        isolated_method=GOTZMANN if certified else HEURISTIC,
    )


def milnor_profile(f: HomogPoly, k_max: int | None = None, field=QQ) -> MilnorProfile:
    return _milnor_profile(f, k_max, field)


def _require_isolated(f: HomogPoly, field) -> MilnorProfile:
    profile = _milnor_profile(f, None, field)
    if not profile.isolated:
        raise NotStabilizedError(
            "Milnor dimensions did not stabilize by degree "
            f"{profile.top_degree + 1}: non-isolated singularities, "
            "or k_max too small"
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
    """Isolatedness verdict plus its method tag: a proof under GOTZMANN;
    under HEURISTIC, True only means the dims sat constant on the window
    past top_degree, which is necessary for isolatedness but not a proof."""
    profile = _milnor_profile(f, None, field)
    return profile.isolated, profile.isolated_method
