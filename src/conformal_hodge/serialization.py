"""JSON and CSV interchange formats.

Field JSON: {"max_degree": D, "terms": [{"m": int, "n": int, "re": float,
"im": float}, ...]} with terms in lexicographic (m, n) order and no
duplicate indices.  Annulus fields add "r_in" and "band_limit", and each
term of one with log levels its level "l" (the power of ln(z zbar), 0 to
2), in (l, m, n) order; torus fields carry separate theta/phi term lists
with "band_limit".  Numbers are JSON numbers and integer fields JSON
integers, and a declared max_degree or band_limit is from 0 to SIZE_LIMIT;
readers raise FormatError on anything else, before any coefficient table
is allocated.  Output JSON is byte for byte the text of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, with
shortest round-trip floats; ``dumps`` writes that layout itself, since the
json module formats indented output in pure Python.  The ``*_to_json``
writers hand it each term list as the table's index and coefficient
arrays, which it fills into one template per term: the same bytes as
json.dumps of the term dicts, with no dict built per term.  All writers
are deterministic and atomic.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .annulus import LaurentField
from .disk import DecompositionResult
from .mapping import ConformalMap
from .series import BivariateField, HolomorphicSeries
from .torus import TorusField

_NUMBER = {int, float}
_INT64 = range(-2**63, 2**63)
SIZE_LIMIT = 512  # largest declared max_degree or band_limit
DEGREE_CAP = 64  # largest map degree and --degree


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


def _bound(value, what):
    """A declared max_degree or band_limit: a JSON integer from 0 to SIZE_LIMIT."""
    if not 0 <= _number(value, what, True) <= SIZE_LIMIT:
        raise FormatError(f"{what} must be from 0 to {SIZE_LIMIT}, got {value}")
    return value


class _TermArrays:
    """The nonzero terms of a coefficient table, whose entry [i, j] or [l, i, j]
    has index (i + offset, j + offset), as the level array l (None without
    levels), index arrays m, n and coefficients c in lexicographic (l, m, n)
    order.  dumps writes it as the term list that dicts() returns."""

    __slots__ = ("l", "m", "n", "c")

    def __init__(self, table, offset):
        *level, i, j = idx = np.nonzero(table)
        self.l, self.m, self.n, self.c = (level or [None])[0], i + offset, j + offset, table[idx]

    def columns(self):
        """(key, format, values) of each key of a term, in sorted key order."""
        return [col for col in (("im", "%r", self.c.imag), ("l", "%d", self.l), ("m", "%d", self.m),
                                ("n", "%d", self.n), ("re", "%r", self.c.real)) if col[2] is not None]

    def dicts(self):
        keys, _, values = zip(*self.columns())
        return [dict(zip(keys, row)) for row in zip(*(a.tolist() for a in values))]


def _malformed(e):
    """Whether a decoded term lacks JSON integers m, n in the int64 range (and l,
    if present) or JSON numbers re, im in the float range (a bool is not a number)."""
    try:
        m, n, re, im, ell = e["m"], e["n"], e["re"], e["im"], e.get("l", 0)
        complex(re, im)  # OverflowError past the float range
    except (KeyError, TypeError, OverflowError):
        return True
    return not ({type(m), type(n), type(ell)} <= {int} and {type(re), type(im)} <= _NUMBER
                and m in _INT64 and n in _INT64)


def _terms_from_list(entries, what="field", levels=0):
    """Level, index and coefficient arrays (l, m, n, c) of a JSON term list; l is
    a term's optional key "l" (0 when absent), from 0 to levels.

    A term that _malformed refuses, a level out of range (before any array is
    built), a non-finite coefficient and a repeated (l, m, n) are refused.
    """
    if type(entries) is not list:
        raise FormatError(f"{what} terms must be a list")
    try:
        rows = [(e["m"], e["n"], e["re"], e["im"], e.get("l", 0)) for e in entries]
        m, n, re, im, ell = zip(*rows) if rows else [()] * 5
        if not ({*map(type, m), *map(type, n), *map(type, ell)} <= {int}
                and {*map(type, re), *map(type, im)} <= _NUMBER):
            raise TypeError
        if not 0 <= min(ell, default=0) <= max(ell, default=0) <= levels:
            k = next(k for k, x in enumerate(ell) if not 0 <= x <= levels)
            raise FormatError(f"{what} term {entries[k]!r} has a level outside 0 to {levels}")
        key = np.array((ell, m, n), dtype=np.int64)
        c = np.empty(len(rows), dtype=complex)
        c.real, c.imag = re, im
    except (KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"malformed {what} term {next(filter(_malformed, entries))!r}") from exc
    finite = np.isfinite(c)
    if not finite.all():
        raise FormatError(f"non-finite coefficient in {what} term {entries[finite.argmin()]!r}")
    order = np.lexsort(key[::-1])
    repeats = order[1:][(np.diff(key[:, order]) == 0).all(axis=0)]
    if repeats.size:
        k = repeats.min()  # the first term whose index came before
        raise FormatError(f"duplicate index {tuple(key[0 if levels else 1 :, k].tolist())} in {what} terms")
    return key[0], key[1], key[2], c


def field_to_json(f: BivariateField) -> dict:
    return {"max_degree": f.max_degree, "terms": _TermArrays(f.table, f.offset)}


def field_from_json(d: dict) -> BivariateField:
    try:
        max_degree, entries = d["max_degree"], d["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("field JSON needs 'max_degree' and 'terms'") from exc
    max_degree = _bound(max_degree, "max_degree")
    try:
        return BivariateField(_terms_from_list(entries)[1:], max_degree=max_degree)
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
        "terms": _TermArrays(f.table, f.offset),
    }


def laurent_from_json(d: dict) -> LaurentField:
    try:
        r_in, band, entries = d["r_in"], d["band_limit"], d["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("laurent JSON needs 'r_in', 'band_limit', 'terms'") from exc
    try:
        return LaurentField(_terms_from_list(entries, what="laurent", levels=2),
                            r_in=_number(r_in, "r_in", False),
                            band_limit=_bound(band, "band_limit"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def torus_to_json(f: TorusField) -> dict:
    n = f.band_limit
    return {
        "band_limit": n,
        "theta_terms": _TermArrays(f.theta_coeffs, -n),
        "phi_terms": _TermArrays(f.phi_coeffs, -n),
    }


def torus_from_json(d: dict) -> TorusField:
    try:
        n, th_entries, ph_entries = d["band_limit"], d["theta_terms"], d["phi_terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("torus JSON needs 'band_limit' and component terms") from exc
    n = _bound(n, "band_limit")
    side = 2 * n + 1
    th = np.zeros((side, side), dtype=complex)
    ph = np.zeros((side, side), dtype=complex)
    for arr, entries, what in ((th, th_entries, "torus theta"), (ph, ph_entries, "torus phi")):
        _, j, k, c = _terms_from_list(entries, what)
        outside = (np.minimum(j, k) < -n) | (np.maximum(j, k) > n)
        if outside.any():
            q = outside.argmax()
            raise FormatError(f"torus index ({j[q]},{k[q]}) outside band {n}")
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
    phi = HolomorphicSeries(coeffs)
    if phi.degree > DEGREE_CAP:
        raise FormatError(f"map degree must be at most {DEGREE_CAP}, got {phi.degree}")
    return ConformalMap(phi)


def decomposition_to_json(result: DecompositionResult) -> dict:
    return {
        "kind": result.kind,
        "conformal": field_to_json(result.parts[0][1]),
        "F": field_to_json(result.multipliers.F),
        "G": field_to_json(result.multipliers.G),
        "residual_norm": result.residual_norm,
        "orthogonality": [list(row) for row in result.orthogonality],
    }


class _Unhandled(Exception):
    """A value that the direct writer leaves to the json module."""


def _term_list(terms, pad):
    """A term list as json.dumps writes it nested at prefix pad: one template
    per term, filled from the arrays; _Unhandled unless every value is finite."""
    if not terms.c.size:
        return "[]"
    if not np.isfinite(terms.c).all():
        raise _Unhandled
    cols, inner, field = terms.columns(), pad + "  ", pad + "    "
    template = "{\n" + ",\n".join(f'{field}"{key}": {fmt}' for key, fmt, _ in cols) + f"\n{inner}}}"
    values = [None] * (len(cols) * terms.c.size)
    for q, (_, _, a) in enumerate(cols):
        values[q :: len(cols)] = a.tolist()
    body = f",\n{inner}".join([template] * terms.c.size) % tuple(values)
    return f"[\n{inner}{body}\n{pad}]"


def _encode(value, pad):
    """value as json.dumps(value, sort_keys=True, indent=2) writes it nested at
    prefix pad; _Unhandled for a value or key it would not write that way."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _Unhandled
        return float.__repr__(value)
    if type(value) is _TermArrays:
        return _term_list(value, pad)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(v, inner) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            raise _Unhandled
        items = [f"{encode_basestring_ascii(k)}: {_encode(value[k], inner)}"
                 for k in sorted(value)]
        brackets = "{}"
    else:
        raise _Unhandled
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{pad}{brackets[1]}"


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline; a NaN or
    infinite value raises FloatingPointError."""
    try:
        return _encode(obj, "") + "\n"
    except (_Unhandled, RecursionError):
        pass  # the json module raises for the value, or writes it its own way
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_plain) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc


def _plain(value):
    """The json module's form of a value it cannot write: a term list's dicts."""
    if type(value) is _TermArrays:
        return value.dicts()
    return json.JSONEncoder().default(value)  # raises its TypeError


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
    values = np.asarray(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        i, k = np.unravel_index(finite.argmin(), finite.shape)  # the first, row by row
        raise FloatingPointError(f"result is not finite: CSV column {header[k]} "
                                 f"is {values[i, k].item()}")
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in values.tolist()]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    """Unused by the package; perfbench/tracer.py wraps it by name."""
    atomic_write(path, format_csv(header, rows))
