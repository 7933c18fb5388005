"""Shared fixtures: parsed corpus polynomials, looked up by entry name."""

from __future__ import annotations

import pytest

from jacsyz.corpus import CORPUS
from jacsyz.poly import HomogPoly, parse_poly


@pytest.fixture(scope="session")
def corpus_polys() -> dict[str, HomogPoly]:
    return {entry.name: parse_poly(entry.poly, entry.var_names) for entry in CORPUS}


@pytest.fixture(scope="session")
def three_cusp(corpus_polys) -> HomogPoly:
    return corpus_polys["three-cusp-quartic"]


@pytest.fixture(scope="session")
def fermat_quartic(corpus_polys) -> HomogPoly:
    return corpus_polys["fermat-quartic"]


@pytest.fixture(scope="session")
def coordinate_triangle(corpus_polys) -> HomogPoly:
    return corpus_polys["coordinate-triangle"]


@pytest.fixture(scope="session")
def line_plus_cubic(corpus_polys) -> HomogPoly:
    return corpus_polys["line-plus-fermat-cubic"]


@pytest.fixture(scope="session")
def node_cubic(corpus_polys) -> HomogPoly:
    return corpus_polys["one-node-cubic"]


@pytest.fixture(scope="session")
def non_isolated() -> HomogPoly:
    # x^2*y^2 is singular along two lines; no certificate may accept it.
    return parse_poly("x^2*y^2", ("x", "y", "z"))
