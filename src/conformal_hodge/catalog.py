"""The six-space decomposition catalog for the standard model domains.

A1 = exact forms with Dirichlet potential, A2 = co-exact forms with
Dirichlet co-potential, A3 = harmonic fields both tangential and normal,
A4 = normal harmonic exact fields, A5 = tangential harmonic co-exact
fields, A6 = simultaneously exact and co-exact harmonic fields.
"""

from __future__ import annotations

from dataclasses import dataclass

DOMAINS = ("disk", "annulus", "torus", "sphere")
SPACE_NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")


@dataclass(frozen=True)
class HodgeCatalogEntry:
    domain: str
    dims: tuple  # six dimensions, A1..A6: "zero", "finite(k)" or "infinite"

    def as_dict(self):
        return dict(zip(SPACE_NAMES, self.dims))

    def __getitem__(self, name):
        return self.dims[SPACE_NAMES.index(name)]


_Z, _I = "zero", "infinite"

_CATALOG = {
    "disk": (_I, _I, _Z, _Z, _Z, _I),
    "annulus": (_I, _I, _Z, "finite(1)", "finite(1)", _I),
    "torus": (_I, _I, "finite(2)", _Z, _Z, _Z),
    "sphere": (_I, _I, _Z, _Z, _Z, _Z),
}


def hodge_catalog(domain: str) -> HodgeCatalogEntry:
    """Dimensions of the six orthogonal subspaces of 1-forms on a model domain."""
    if domain not in _CATALOG:
        raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    return HodgeCatalogEntry(domain=domain, dims=_CATALOG[domain])
