"""Independent offline oracle: Gröbner bases from sympy, against the
engine's slice ranks.

The Hilbert function of S/I in degree k is the number of degree-k monomials
outside the initial ideal of I, for any monomial order, so the leading
monomials of a Gröbner basis give dim M(f)_k directly.  The saturation
Ĵ = J : ℓ^∞, for a linear form ℓ through no singular point, is the t-free
part of a lex basis of J + (1 − t·ℓ) with t the largest variable (the
Rabinowitsch trick; sympy has no saturation of its own).  The polynomial
text goes through sympy's own parser and derivatives, so nothing here
shares code with the engine.
"""

from math import comb

import pytest

from jacsyz.corpus import CORPUS
from jacsyz.milnor import milnor_dim, milnor_profile
from jacsyz.poly import parse_poly
from jacsyz.saturation import saturation_profile

sympy = pytest.importorskip("sympy")

XYZ = ("x", "y", "z")
INPUTS = {e.name: e.poly for e in CORPUS if e.name != "fermat-quartic"}
INPUTS["x^6-y^6"] = "x^6-y^6"
INPUTS["node-on-l1"] = "x*y*z*(y-z)"
# smooth over Q, with its GF(32003) screen short of the generic rank in
# degree 10 (its z^5 term vanishes mod 32003)
INPUTS["screen-shortfall"] = "x*y*z^3 + x^5 + y^5 + 32003*z^5"
# avoids every singular point of every input above; a form through one
# would drop that point's Tjurina number from the oracle's plateau
ELL = "x + 3*y + 7*z"
FAR = 40


def _standard_monomials(leading, k):
    """Degree-k monomials in three variables divisible by no leading monomial."""
    count = 0
    for a in range(k + 1):
        for b in range(k - a + 1):
            mono = (a, b, k - a - b)
            if not any(all(m >= e for m, e in zip(mono, lead)) for lead in leading):
                count += 1
    return count


def _leading(basis, gens, order):
    return [sympy.Poly(g, *gens).terms(order=order)[0][0] for g in basis]


@pytest.fixture(scope="module", params=list(INPUTS), ids=list(INPUTS))
def case(request):
    text = INPUTS[request.param]
    gens = sympy.symbols(XYZ)
    expr = sympy.sympify(text, locals=dict(zip(XYZ, gens)))
    partials = [p for p in (sympy.diff(expr, v) for v in gens) if p != 0]
    return parse_poly(text, XYZ), gens, partials


def test_milnor_dims_match_groebner(case):
    f, gens, partials = case
    basis = sympy.groebner(partials, *gens, order="grevlex")
    leading = _leading(basis.exprs, gens, "grevlex")
    p = milnor_profile(f)
    assert [_standard_monomials(leading, k) for k in range(p.k_max + 1)] == list(
        p.dims[: p.k_max + 1]
    )
    # far past the scanned range: the plateau the certificate filled in
    assert _standard_monomials(leading, FAR) == p.tau == milnor_dim(f, FAR)


def test_saturation_matches_rabinowitsch(case):
    f, gens, partials = case
    t = sympy.Symbol("t")
    ell = sympy.sympify(ELL, locals=dict(zip(XYZ, gens)))
    basis = sympy.groebner(partials + [1 - t * ell], t, *gens, order="lex")
    eliminated = [g for g in basis.exprs if not g.has(t)]
    leading = _leading(eliminated, gens, "lex")
    p = milnor_profile(f)
    # Ĵ has the plateau τ exactly when ℓ misses every singular point
    assert _standard_monomials(leading, FAR) == p.tau
    # J_k = Ĵ_k from here on
    bound = p.st if p.smooth_input else max(p.top_degree - p.ct, p.st)
    hat = saturation_profile(f).hatJ_dims
    for k in range(bound):
        assert comb(k + 2, 2) - _standard_monomials(leading, k) == hat[k], k
