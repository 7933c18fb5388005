"""Seeded benchmark inputs and the oracle every report must meet.

The engine only ever sees polynomial text.  Each workload draws a stream of
distinct forms from `random.Random(seed)`, so the same seed gives the same
forms and a run never analyses one polynomial twice (the engine memoises on
the polynomial, so a repeat would be a cache hit, not a cold analysis).

Why these three workloads (METRICS.md maps them to layers and metrics):

* dense-exact: dense ternary quintics, certified smooth, so almost all of
  the time is integer elimination of Milnor slices, most of it above T+1.
* dense-modp: the same forms over one fixed prime, so the same slices go
  through the GF(p) kernel; an exact-only gain must not move it.
* lines-exact: generic six-line arrangements (three of them on the
  coordinate triangle) are singular (tau = 15), so
  saturation, essential syzygies, the CI solve and the saturation checks
  all run on real data.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

VARS = ("x", "y", "z")

# Same distribution as random_dense_homogeneous(rng, 3, 5) in tests/helpers.py.
DENSE_DEGREE = 5
DENSE_COEFFS = (-5, 5)

# One fixed 31-bit prime (2^31 - 1), inside the range `mod:random` draws from.
MODP_PRIME = 2147483647

# Three of the six lines are the coordinate triangle x*y*z.  A projective
# change of coordinates puts any three non-concurrent lines there, and tau,
# mdr and the Milnor dims do not change under it, so these are still generic
# arrangements.  The sparser product costs 1.5-3 s a form instead of 3-8 s
# with six lines x + b*y + c*z, so a run holds about fifteen forms, not six,
# and their median is steadier.  The other three lines are x + b*y + c*z; b and
# c must be nonzero, or the line would meet two sides of the triangle at a
# vertex.
LINE_COUNT = 6
TRIANGLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
LINE_COEFFS = (-3, -2, -1, 1, 2, 3)


def _exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one degree in increasing lex order (the order of
    the engine's monomial_basis, so draws match tests/helpers.py)."""
    if nvars == 1:
        return [(degree,)]
    return [
        (e0,) + rest
        for e0 in range(degree + 1)
        for rest in _exponents(nvars - 1, degree - e0)
    ]


def _monomial(exps: tuple[int, ...]) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e]
    return "*".join(factors)


def dense_text(coeffs: dict[tuple[int, ...], int]) -> str:
    out = ""
    for exps, c in coeffs.items():
        if not c:
            continue
        term = f"{abs(c)}*{_monomial(exps)}"
        if not out:
            out = term if c > 0 else f"-{term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _line_text(line: tuple[int, int, int]) -> str:
    if line in TRIANGLE:
        return VARS[line.index(1)]
    out = "x"
    for c, v in zip(line[1:], VARS[1:]):
        out += f" + {c}*{v}" if c > 0 else f" - {-c}*{v}"
    return f"({out})"


@dataclass(frozen=True)
class Form:
    """One generated input: the text the engine parses, plus the dense
    coefficients it must parse back to (None for factored line products)."""

    text: str
    coeffs: dict[tuple[int, ...], int] | None


def smooth_certificate(coeffs: dict[tuple[int, ...], int], degree: int, prime: int) -> bool:
    """True when the three partials span every form of degree 3(d-2)+1
    modulo `prime`.  Then the partials have no common zero over the
    algebraic closure of GF(prime), nor over that of Q (a rank mod a prime
    is at most the rank over Q), so the form is smooth in both fields.
    Written here, not taken from the engine, so the oracle stays independent."""
    target = 3 * (degree - 2) + 1
    cols = {e: j for j, e in enumerate(_exponents(3, target))}
    rows = []
    for v in range(3):
        partial = {}
        for e, c in coeffs.items():
            if e[v] and c % prime:
                partial[e[:v] + (e[v] - 1,) + e[v + 1 :]] = c * e[v] % prime
        for m in _exponents(3, target - degree + 1):
            row = [0] * len(cols)
            for e, c in partial.items():
                row[cols[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    rank = 0
    for j in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[j], -1, prime)
        top[j:] = [a * inv % prime for a in top[j:]]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[j]
            if f:
                row[j:] = [(a - f * b) % prime for a, b in zip(row[j:], top[j:])]
        rank += 1
    return True


def dense_forms(rng: random.Random) -> Iterator[Form]:
    """Distinct dense quintics certified smooth (see smooth_certificate):
    a draw with small coefficients is singular now and then (a few in a
    thousand), and such a form belongs to no workload here."""
    monomials = _exponents(len(VARS), DENSE_DEGREE)
    lo, hi = DENSE_COEFFS
    seen: set[tuple[int, ...]] = set()
    while True:
        draw = tuple(rng.randint(lo, hi) for _ in monomials)
        if not any(draw) or draw in seen:
            continue
        seen.add(draw)
        coeffs = {e: c for e, c in zip(monomials, draw) if c}
        if smooth_certificate(coeffs, DENSE_DEGREE, MODP_PRIME):
            yield Form(dense_text(coeffs), coeffs)


def generic_lines(rng: random.Random) -> tuple[tuple[int, int, int], ...]:
    """The coordinate triangle and three more lines, no two proportional
    and no three concurrent (every 3x3 determinant nonzero), so the
    arrangement has only nodes."""
    while True:
        lines = list(TRIANGLE)
        for _ in range(200):
            line = (1, rng.choice(LINE_COEFFS), rng.choice(LINE_COEFFS))
            if line in lines:
                continue
            if all(_det3(line, a, b) for a, b in itertools.combinations(lines, 2)):
                lines.append(line)
                if len(lines) == LINE_COUNT:
                    return TRIANGLE + tuple(sorted(lines[3:]))


def line_forms(rng: random.Random) -> Iterator[Form]:
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    while True:
        lines = generic_lines(rng)
        if lines not in seen:
            seen.add(lines)
            yield Form("*".join(_line_text(l) for l in lines), None)


def smooth_series(nvars: int, d: int, upto: int) -> list[int]:
    """Coefficients 0..upto of (1 + t + ... + t^(d-2))^nvars, the Hilbert
    series of the Jacobian algebra of any smooth degree-d form."""
    series = [1]
    for _ in range(nvars):
        nxt = [0] * (len(series) + d - 2)
        for i, a in enumerate(series):
            for j in range(d - 1):
                nxt[i + j] += a
        series = nxt
    return [series[k] if k < len(series) else 0 for k in range(upto + 1)]


@dataclass(frozen=True)
class Workload:
    name: str
    field_mode: str
    degree: int
    generate: Callable[[random.Random], Iterator[Form]]
    tau: int
    mdr: int | None

    @property
    def prime(self) -> int | None:
        return int(self.field_mode[4:]) if self.field_mode.startswith("mod:") else None

    def forms(self, seed: int) -> Iterator[Form]:
        """The workload's endless stream of distinct forms for `seed`."""
        return self.generate(random.Random(seed))

    def check(self, form: Form, parsed_terms: dict | None, doc: dict) -> list[str]:
        """Problems with one JSON report (parsed back from its text); empty
        when the report is isolated, passes every check and duality row,
        and meets this workload's oracle."""
        problems = []
        if form.coeffs is not None and parsed_terms is not None and parsed_terms != form.coeffs:
            problems.append("parsed coefficients differ from the generated ones")
        m = doc["milnor"]
        if not m["isolated"]:
            problems.append("reported non-isolated")
        problems += [f"check {r['name']} failed" for r in doc["checks"] if r["pass"] is False]
        problems += [f"duality row k={r['k']} failed" for r in doc["theorem"] if not r["pass"]]
        if doc["input"]["field"] != self.field_mode:
            problems.append(f"field {doc['input']['field']} != {self.field_mode}")
        if m["tau"] != self.tau:
            problems.append(f"tau {m['tau']} != {self.tau}")
        if self.tau == 0:
            want = smooth_series(len(VARS), self.degree, len(m["dims"]) - 1)
            if m["dims"] != want:
                problems.append("Milnor dims differ from the smooth series")
        if doc["syzygy"]["mdr"] != self.mdr:
            problems.append(f"mdr {doc['syzygy']['mdr']} != {self.mdr}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-exact", "exact", DENSE_DEGREE, dense_forms, tau=0, mdr=None),
        Workload(
            "dense-modp", f"mod:{MODP_PRIME}", DENSE_DEGREE, dense_forms, tau=0, mdr=None
        ),
        # generic arrangement of d lines: d(d-1)/2 nodes, mdr = d - 2
        Workload(
            "lines-exact",
            "exact",
            LINE_COUNT,
            line_forms,
            tau=LINE_COUNT * (LINE_COUNT - 1) // 2,
            mdr=LINE_COUNT - 2,
        ),
    )
}
