"""The six-space decomposition catalog for the standard model domains.

A1 = exact forms with Dirichlet potential, A2 = co-exact forms with
Dirichlet co-potential, A3 = harmonic fields both tangential and normal,
A4 = normal harmonic exact fields, A5 = tangential harmonic co-exact
fields, A6 = simultaneously exact and co-exact harmonic fields.
"""

from __future__ import annotations

DOMAINS = ("disk", "annulus", "torus", "sphere")
SPACE_NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")
_Z, _I = "zero", "infinite"

_CATALOG = {
    "disk": (_I, _I, _Z, _Z, _Z, _I),
    "annulus": (_I, _I, _Z, "finite(1)", "finite(1)", _I),
    "torus": (_I, _I, "finite(2)", _Z, _Z, _Z),
    "sphere": (_I, _I, _Z, _Z, _Z, _Z),
}


def hodge_catalog(domain: str) -> dict:
    """{"A1": ..., "A6": ...}: dimensions of the six orthogonal subspaces of
    1-forms on a model domain, each "zero", "finite(k)" or "infinite"."""
    if domain not in _CATALOG:
        raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    return dict(zip(SPACE_NAMES, _CATALOG[domain]))
