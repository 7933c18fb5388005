"""Degree-wise saturation of the Jacobian ideal and the invariants of the
quotient Ĵ/J: saturation threshold, defect sequence, a-invariant, and
Castelnuovo–Mumford regularity.

The saturated slice Ĵ_k is computed as ∩_i {g ∈ S_k : x_i^N·g ∈ J_{k+N}}
with N chosen so that k+N reaches the degree where J and Ĵ provably agree
(max(T−ct, st); for smooth input st alone, where the ideal is everything).
The membership constraints of the target slice, composed with each of the
n+1 shift maps, are stacked into one matrix whose kernel is that
intersection, so the whole computation stays in the same exact linear
algebra as everything else.

The a-invariant and the regularity each have a definitional route (through
defects and SD dimensions, with the degree −1 defect equal to τ) and a
closed-form route (through ct and sat); both are stored, and the analyzer's
check rows fail if they ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
# slice_dim is unused here but stays importable: perfbench/spans.py wraps it
# by module attribute
from .graded import basis_index, ideal_slice, monomial_basis, per_form, slice_dim, space_dim
from .linalg import ExactMatrix, Subspace, kernel
from .milnor import MilnorProfile, milnor_dim, milnor_profile
from .poly import HomogPoly, partial_derivatives

__all__ = [
    "PreconditionViolatedError",
    "saturation_slice",
    "SaturationProfile",
    "saturation_profile",
]


class PreconditionViolatedError(RuntimeError):
    """Saturation was requested without a passing isolatedness check."""


def _checked_profile(f: HomogPoly, k_max: int | None, field) -> MilnorProfile:
    profile = milnor_profile(f, k_max, field)
    if not profile.isolated:
        raise PreconditionViolatedError(
            "saturation needs certified Milnor dimensions "
            "(isolatedness not-certified)"
        )
    return profile


def agreement_bound(profile: MilnorProfile) -> int:
    """Degree from which J_k = Ĵ_k is guaranteed."""
    if profile.smooth_input:
        return profile.st
    return max(profile.top_degree - profile.ct, profile.st)


@per_form
def _saturation_slice(f: HomogPoly, k: int, field) -> Subspace:
    profile = _checked_profile(f, None, field)
    nvars = f.nvars
    gens = partial_derivatives(f)
    bound = agreement_bound(profile)
    if k >= bound:
        return ideal_slice(gens, k, field)
    N = bound - k
    ambient = space_dim(nvars, k)
    if milnor_dim(f, k + N, field) == 0:
        # J_{k+N} = S_{k+N}: every shift lands inside, no slice needed
        return Subspace.full(ambient, field)
    constraints = ideal_slice(gens, k + N, field).membership_constraints()
    low = monomial_basis(nvars, k)
    high_index = basis_index(nvars, k + N)
    rows = []
    for i in range(nvars):
        shift = [
            high_index[mu[:i] + (mu[i] + N,) + mu[i + 1 :]] for mu in low
        ]
        rows += ([crow[s] for s in shift] for crow in constraints)
    return kernel(ExactMatrix.from_rows(rows, ncols=ambient), field)


def saturation_slice(f: HomogPoly, k: int, field=QQ) -> Subspace:
    """Ĵ_k as a subspace of S_k in monomial coordinates."""
    if k < 0:
        return Subspace.zero(0, field)
    return _saturation_slice(f, k, field)


@dataclass(frozen=True)
class SaturationProfile:
    """Per-degree data of Ĵ and SD = Ĵ/J for degrees 0..k_max, plus the
    derived invariants — definitional and closed-form values side by side
    (closed forms are None for smooth input, where ct is undefined)."""

    k_max: int
    top_degree: int
    tau: int
    hatJ_dims: tuple[int, ...]
    sd_dims: tuple[int, ...]
    defects: tuple[int, ...]
    sat: int
    a_invariant: int | None
    a_invariant_closed: int | None
    regularity: int
    regularity_closed: int | None

    @property
    def smooth_input(self) -> bool:
        return self.a_invariant_closed is None


@per_form
def _saturation_profile(f: HomogPoly, k_max: int | None, field) -> SaturationProfile:
    profile = _checked_profile(f, k_max, field)
    nvars = f.nvars
    T = profile.top_degree
    tau = profile.tau
    bound = agreement_bound(profile)
    k_top = max(profile.k_max, bound, T)

    j_dims = [space_dim(nvars, k) - milnor_dim(f, k, field) for k in range(k_top + 1)]
    hatJ = [
        j_dims[k] if k >= bound else _saturation_slice(f, k, field).dim
        for k in range(k_top + 1)
    ]
    sd = [hatJ[k] - j_dims[k] for k in range(k_top + 1)]
    defects = [tau - (space_dim(nvars, k) - hatJ[k]) for k in range(k_top + 1)]

    sat = 0
    for k in range(k_top, -1, -1):
        if sd[k] != 0:
            sat = k + 1
            break

    # defect at degree −1 equals τ (both S and Ĵ vanish there), which is what
    # makes a = −1 representable when all defects from degree 0 on are zero
    a_def: int | None = None
    for k in range(k_top, -1, -1):
        if defects[k] != 0:
            a_def = k
            break
    if a_def is None and tau > 0:
        a_def = -1

    sd_top = sat - 1 if sat else None
    reg_candidates = [v for v in (sd_top, None if a_def is None else a_def + 1) if v is not None]
    reg_def = max(reg_candidates)

    if profile.smooth_input:
        a_closed = None
        reg_closed = None
    else:
        a_closed = T - profile.ct - 1
        reg_closed = max(T - profile.ct, sat - 1)

    return SaturationProfile(
        k_max=profile.k_max,
        top_degree=T,
        tau=tau,
        hatJ_dims=tuple(hatJ),
        sd_dims=tuple(sd),
        defects=tuple(defects),
        sat=sat,
        a_invariant=a_def,
        a_invariant_closed=a_closed,
        regularity=reg_def,
        regularity_closed=reg_closed,
    )


def saturation_profile(f: HomogPoly, k_max: int | None = None, field=QQ) -> SaturationProfile:
    return _saturation_profile(f, k_max, field)
