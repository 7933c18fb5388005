"""Sparse homogeneous polynomials over the rationals.

Terms are stored as a map from exponent tuples to nonzero Fraction
coefficients.  The parser implements a small explicit grammar (no implicit
multiplication) and rejects inhomogeneous or identically zero input, so
every HomogPoly that reaches the engine has a well-defined degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Exps = tuple[int, ...]

__all__ = [
    "HomogPoly",
    "PolyError",
    "ParseError",
    "NotHomogeneousError",
    "ZeroPolynomialError",
    "parse_poly",
    "partial_derivatives",
    "euler_mismatches",
    "permute_variables",
    "monomial_text",
]


class PolyError(ValueError):
    """Base class for polynomial input errors."""


class ParseError(PolyError):
    """Syntax error in polynomial text; carries a 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneousError(PolyError):
    """The expanded polynomial mixes terms of different total degree."""


class ZeroPolynomialError(PolyError):
    """The expanded polynomial is identically zero."""


def monomial_text(exps: Exps, var_names: Sequence[str]) -> str:
    """Render one monomial, e.g. (2, 1, 0) -> "x^2*y"."""
    factors = []
    for e, v in zip(exps, var_names):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append(f"{v}^{e}")
    return "*".join(factors) if factors else "1"


class HomogPoly:
    """An immutable homogeneous polynomial with exact coefficients.

    The zero polynomial of a declared degree is allowed (it shows up as a
    vanishing partial derivative); parse_poly never produces it.  The first
    partials are computed once, on first request (partial_derivatives), and
    kept on the polynomial.
    """

    __slots__ = ("nvars", "degree", "terms", "_hash", "_partials")

    def __init__(self, nvars: int, degree: int, terms: dict[Exps, Fraction]):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Exps, Fraction] = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for {nvars} variables")
            if sum(exps) != degree:
                raise ValueError(f"term {exps!r} has degree {sum(exps)}, expected {degree}")
            clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", hash((nvars, degree, frozenset(clean.items()))))
        object.__setattr__(self, "_partials", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("can only add homogeneous polynomials of equal degree")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return HomogPoly(self.nvars, self.degree, terms)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return HomogPoly(self.nvars, self.degree + other.degree, terms)

    def scaled(self, factor) -> "HomogPoly":
        factor = Fraction(factor)
        return HomogPoly(self.nvars, self.degree, {e: c * factor for e, c in self.terms.items()})

    def primitive(self) -> "HomogPoly":
        """The primitive integer multiple: coprime integer coefficients, the
        same polynomial up to a nonzero rational factor.  Zero stays zero."""
        coeffs = self.terms.values()
        den = math.lcm(*(c.denominator for c in coeffs))
        content = math.gcd(*(c.numerator for c in coeffs))
        if den == 1 and content <= 1:
            return self
        return self.scaled(Fraction(den, content))

    def partial_derivative(self, i: int) -> "HomogPoly":
        if self.degree < 1:
            raise ValueError("cannot differentiate a degree-0 polynomial")
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        terms: dict[Exps, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            terms[lowered] = coeff * exps[i]
        return HomogPoly(self.nvars, self.degree - 1, terms)

    def text(self, var_names: Sequence[str] | None = None) -> str:
        """Canonical text form, parseable by parse_poly with the same names."""
        names = list(var_names) if var_names else [f"x{i}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = monomial_text(exps, names)
            mag = abs(coeff)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"HomogPoly({self.text()!r}, nvars={self.nvars}, degree={self.degree})"


def partial_derivatives(f: HomogPoly) -> tuple[HomogPoly, ...]:
    """All first partials of f.  Vanishing partials come back as zero
    polynomials of degree d-1 so positional bookkeeping stays intact.  The
    tuple is built once per polynomial and the same object is returned on
    every later call."""
    if f._partials is None:
        partials = tuple(f.partial_derivative(i) for i in range(f.nvars))
        object.__setattr__(f, "_partials", partials)
    return f._partials


def euler_mismatches(f: HomogPoly) -> int:
    """Number of coefficients where sum_i x_i * df/dx_i and deg(f) * f
    differ: 0 when Euler's identity holds.  The identity is one of calculus,
    so this doubles as a self-test of the term arithmetic."""
    if f.degree < 1:
        return 0
    acc: dict[Exps, Fraction] = {e: -c * f.degree for e, c in f.terms.items()}
    for i, fi in enumerate(partial_derivatives(f)):
        for exps, coeff in fi.terms.items():
            raised = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            acc[raised] = acc.get(raised, Fraction(0)) + coeff
    return sum(1 for c in acc.values() if c)


def permute_variables(f: HomogPoly, perm: Sequence[int]) -> HomogPoly:
    """Relabel variables: variable i becomes variable perm[i]."""
    if sorted(perm) != list(range(f.nvars)):
        raise ValueError("perm must be a permutation of the variable indices")
    terms: dict[Exps, Fraction] = {}
    for exps, coeff in f.terms.items():
        new = [0] * f.nvars
        for i, e in enumerate(exps):
            new[perm[i]] = e
        terms[tuple(new)] = coeff
    return HomogPoly(f.nvars, f.degree, terms)


# --- parsing ---------------------------------------------------------------
#
# expression ::= term (('+' | '-') term)*
# term       ::= factor ('*' factor)*
# factor     ::= integer ('/' integer)?
#              | variable ('^' integer)?
#              | '(' expression ')'
#              | '-' factor
#
# No implicit multiplication; exponents are nonnegative decimal integers.
# During parsing the expression is expanded into a raw term map; homogeneity
# and nonzeroness are checked only on the fully expanded result.

_T_INT = "int"
_T_NAME = "name"
_T_OP = "op"
_T_END = "end"

RawPoly = dict[Exps, Fraction]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_T_INT, text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_T_NAME, text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append((_T_OP, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append((_T_END, "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, var_names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = len(var_names)
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_int(self, what: str) -> int:
        kind, text, pos = self.advance()
        if kind != _T_INT:
            raise ParseError(f"expected {what}", pos)
        return int(text)

    def _const(self, value: Fraction) -> RawPoly:
        zero = (0,) * self.nvars
        return {zero: value} if value else {}

    def _var(self, index: int, power: int) -> RawPoly:
        exps = [0] * self.nvars
        exps[index] = power
        return {tuple(exps): Fraction(1)}

    @staticmethod
    def _add(a: RawPoly, b: RawPoly, sign: int) -> RawPoly:
        out = dict(a)
        for exps, coeff in b.items():
            acc = out.get(exps, Fraction(0)) + sign * coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return out

    @staticmethod
    def _mul(a: RawPoly, b: RawPoly) -> RawPoly:
        out: RawPoly = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(e, Fraction(0)) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return out

    def expression(self) -> RawPoly:
        acc = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text in "+-":
                self.advance()
                acc = self._add(acc, self.term(), 1 if text == "+" else -1)
            else:
                return acc

    def term(self) -> RawPoly:
        acc = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text == "*":
                self.advance()
                acc = self._mul(acc, self.factor())
            else:
                return acc

    def factor(self) -> RawPoly:
        kind, text, pos = self.advance()
        if kind == _T_INT:
            value = Fraction(int(text))
            k2, t2, _ = self.peek()
            if k2 == _T_OP and t2 == "/":
                self.advance()
                dpos = self.peek()[2]
                den = self.expect_int("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                value /= den
            return self._const(value)
        if kind == _T_NAME:
            if text not in self.var_index:
                raise ParseError(f"unknown variable {text!r}", pos)
            power = 1
            k2, t2, _ = self.peek()
            if k2 == _T_OP and t2 == "^":
                self.advance()
                power = self.expect_int("an exponent")
            return self._var(self.var_index[text], power)
        if kind == _T_OP and text == "(":
            inner = self.expression()
            k2, t2, p2 = self.advance()
            if k2 != _T_OP or t2 != ")":
                raise ParseError("expected ')'", p2)
            return inner
        if kind == _T_OP and text == "-":
            inner = self.factor()
            return {e: -c for e, c in inner.items()}
        shown = text if text else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse_poly(text: str, var_names: Sequence[str]) -> HomogPoly:
    """Parse polynomial text over the given variables.

    Raises ParseError on bad syntax (with a 1-based position),
    NotHomogeneousError when the expanded form mixes degrees, and
    ZeroPolynomialError when everything cancels.
    """
    names = list(var_names)
    if not names:
        raise ValueError("need at least one variable name")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    for name in names:
        if not name or not (name[0].isalpha() or name[0] == "_") or not all(
            c.isalnum() or c == "_" for c in name
        ):
            raise ValueError(f"bad variable name {name!r}")

    parser = _Parser(text, names)
    raw = parser.expression()
    kind, tail, pos = parser.peek()
    if kind != _T_END:
        shown = tail if tail else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)

    if not raw:
        raise ZeroPolynomialError("polynomial is identically zero after expansion")
    degrees = sorted({sum(e) for e in raw})
    if len(degrees) > 1:
        lo = min((e for e in raw if sum(e) == degrees[0]), key=lambda e: tuple(e))
        hi = min((e for e in raw if sum(e) == degrees[-1]), key=lambda e: tuple(e))
        raise NotHomogeneousError(
            f"not homogeneous: term {monomial_text(lo, names)} has degree {degrees[0]} "
            f"but term {monomial_text(hi, names)} has degree {degrees[-1]}"
        )
    return HomogPoly(len(names), degrees[0], raw)
