"""JSON and CSV interchange formats.

Field JSON: {"max_degree": D, "terms": [{"m": int, "n": int, "re": float,
"im": float}, ...]} with terms in lexicographic (m, n) order and no
duplicate indices.  Annulus fields add "r_in" and "band_limit"; torus
fields carry separate theta/phi term lists with "band_limit".  Numbers are
JSON numbers and integer fields JSON integers; readers raise FormatError
on anything else.  All writers are deterministic (sorted keys, shortest
round-trip floats) and atomic.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
import tempfile

import numpy as np

from .annulus import LaurentField
from .disk import DecompositionResult
from .mapping import ConformalMap
from .series import BivariateField, HolomorphicSeries
from .torus import TorusField


class FormatError(ValueError):
    """Input does not conform to the declared interchange format."""


def _number(value, what, integer):
    """A JSON integer, or for a non-integer field a finite JSON number as a float."""
    if type(value) is not int and (integer or not isinstance(value, float)):
        raise FormatError(f"{what} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    if integer:
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, infinity, an integer past the float range
        raise FormatError(f"{what} must be finite and in range, got {value!r}")
    return float(value)


def _terms_to_list(items):
    return [
        {"m": m, "n": n, "re": c.real, "im": c.imag}
        for (m, n), c in items
    ]


def _terms_from_list(entries, what="field"):
    if type(entries) is not list:
        raise FormatError(f"{what} terms must be a list")
    terms = {}
    for e in entries:
        try:
            m, n, re, im = e["m"], e["n"], e["re"], e["im"]
            if not (type(m) is int and type(n) is int  # a bool is not an int here
                    and (type(re) is float or type(re) is int)
                    and (type(im) is float or type(im) is int)):
                raise TypeError("m and n must be integers, re and im numbers")
            key, val = (m, n), complex(re, im)
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"malformed {what} term {e!r}") from exc
        if not cmath.isfinite(val):
            raise FormatError(f"non-finite coefficient in {what} term {e!r}")
        if key in terms:
            raise FormatError(f"duplicate index {key} in {what} terms")
        terms[key] = val
    return terms


def field_to_json(f: BivariateField) -> dict:
    return {"max_degree": f.max_degree, "terms": _terms_to_list(f.items())}


def field_from_json(d: dict) -> BivariateField:
    try:
        max_degree, entries = d["max_degree"], d["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("field JSON needs 'max_degree' and 'terms'") from exc
    max_degree = _number(max_degree, "max_degree", True)
    try:
        return BivariateField(_terms_from_list(entries), max_degree=max_degree)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def series_to_json(h: HolomorphicSeries) -> dict:
    return field_to_json(h.to_field())


def series_from_json(d: dict) -> HolomorphicSeries:
    try:
        return HolomorphicSeries.from_field(field_from_json(d))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def laurent_to_json(f: LaurentField) -> dict:
    return {
        "band_limit": f.band_limit,
        "r_in": f.r_in,
        "terms": _terms_to_list(f.items()),
    }


def laurent_from_json(d: dict) -> LaurentField:
    try:
        r_in, band, entries = d["r_in"], d["band_limit"], d["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("laurent JSON needs 'r_in', 'band_limit', 'terms'") from exc
    try:
        return LaurentField(_terms_from_list(entries, what="laurent"),
                            r_in=_number(r_in, "r_in", False),
                            band_limit=_number(band, "band_limit", True))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def torus_to_json(f: TorusField) -> dict:
    n = f.band_limit

    def comp(arr):
        j, k = np.nonzero(arr)
        return _terms_to_list(zip(zip((j - n).tolist(), (k - n).tolist()), arr[j, k].tolist()))

    return {
        "band_limit": n,
        "theta_terms": comp(f.theta_coeffs),
        "phi_terms": comp(f.phi_coeffs),
    }


def torus_from_json(d: dict) -> TorusField:
    try:
        n, th_entries, ph_entries = d["band_limit"], d["theta_terms"], d["phi_terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("torus JSON needs 'band_limit' and component terms") from exc
    if not _number(n, "band_limit", True) >= 0:
        raise FormatError(f"band_limit must be at least 0, got {n}")
    th_terms = _terms_from_list(th_entries, what="torus theta")
    ph_terms = _terms_from_list(ph_entries, what="torus phi")
    side = 2 * n + 1
    th = np.zeros((side, side), dtype=complex)
    ph = np.zeros((side, side), dtype=complex)
    for arr, terms in ((th, th_terms), (ph, ph_terms)):
        for (j, k), c in terms.items():
            if abs(j) > n or abs(k) > n:
                raise FormatError(f"torus index ({j},{k}) outside band {n}")
            arr[j + n, k + n] = c
    try:
        return TorusField(th, ph)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def map_to_json(m: ConformalMap) -> dict:
    return {"coeffs": [[c.real, c.imag] for c in m.phi.coeffs]}


def map_from_json(d: dict) -> ConformalMap:
    try:
        pairs = [(re, im) for re, im in d["coeffs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("map JSON needs 'coeffs' as [[re, im], ...]") from exc
    coeffs = [complex(*(_number(x, "map coefficient", False) for x in pair)) for pair in pairs]
    return ConformalMap(HolomorphicSeries(coeffs))


def decomposition_to_json(result: DecompositionResult) -> dict:
    if result.kind == "conformal":
        primary = result.conformal.to_field()
    else:
        primary = result.divergence_free
    return {
        "kind": result.kind,
        "conformal": field_to_json(primary),
        "F": field_to_json(result.multipliers.F),
        "G": field_to_json(result.multipliers.G),
        "residual_norm": result.residual_norm,
        "orthogonality": [list(row) for row in result.orthogonality],
    }


def dumps(obj) -> str:
    """Indented JSON with sorted keys; a NaN or infinite value raises FloatingPointError."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc


def atomic_write(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write(path, dumps(obj))


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc


def format_csv(header, rows) -> str:
    """CSV text with shortest round-trip floats; a NaN or infinite value raises
    FloatingPointError, as in dumps."""
    lines = [",".join(header)]
    for row in rows:
        values = [float(x) for x in row]
        if not all(map(math.isfinite, values)):
            name, bad = next((h, v) for h, v in zip(header, values) if not math.isfinite(v))
            raise FloatingPointError(f"result is not finite: CSV column {name} is {bad}")
        lines.append(",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    atomic_write(path, format_csv(header, rows))
