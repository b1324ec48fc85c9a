"""The interchange writer against the json module, and the JSON term reader.

``dumps`` writes the sorted-key, two-space-indent layout itself, so every
object the CLI writes must come out byte for byte as ``json.dumps`` writes
it, and a value ``dumps`` does not write itself must behave exactly as in
``json.dumps``.  The term reader builds the coefficient table with array
operations; it must accept and refuse the same term lists as the
term-by-term reference reader in ``oracles``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import serialization as ser
from conformal_hodge.annulus import LaurentField
from conformal_hodge.cli import main
from conformal_hodge.disk import (DecompositionResult, MultiplierPair, conformal_decompose,
                                  helmholtz_decompose, symplectic_decompose)
from conformal_hodge.series import BivariateField, HolomorphicSeries
from conformal_hodge.torus import TorusField

import oracles


def stdlib(obj):
    """json.dumps of obj with its term lists as the dicts they stand for."""
    return json.dumps(oracles.term_dicts(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
PARTS = st.floats(-1e300, 1e300)  # the modulus of a coefficient stays finite
MODERATE = st.floats(-1e3, 1e3)


def _coeffs(parts):
    return st.builds(complex, parts, parts)


def _terms(lo, hi, parts=PARTS):
    indices = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    return st.dictionaries(indices, _coeffs(parts), max_size=12)


DISK_FIELDS = _terms(0, 8).map(BivariateField)
SERIES = st.lists(_coeffs(PARTS), max_size=10).map(HolomorphicSeries)
LAURENT_FIELDS = _terms(-4, 4).map(lambda t: LaurentField(t, r_in=0.5))
TORUS_FIELDS = st.builds(lambda th, ph: TorusField.from_terms(th, ph, band_limit=2),
                         _terms(-2, 2, MODERATE), _terms(-2, 2, MODERATE))
DECOMPOSITIONS = st.builds(
    lambda split, terms: ser.decomposition_to_json(split(BivariateField(terms))),
    st.sampled_from([conformal_decompose, helmholtz_decompose, symplectic_decompose]),
    _terms(0, 4, MODERATE))
STATIONARY_SUMMARIES = st.fixed_dictionaries(
    {"residual_norm": FLOATS, "iterations": st.integers(0, 100), "converged": st.booleans(),
     "xi": SERIES.map(ser.series_to_json)},
    optional={"F": DISK_FIELDS.map(ser.field_to_json), "G": DISK_FIELDS.map(ser.field_to_json)})
TRAJECTORY_SUMMARIES = st.fixed_dictionaries(
    {"dt": FLOATS, "steps": st.integers(1, 10**6), "final_time": FLOATS,
     "energy_rel_drift": FLOATS},
    optional={"order": st.none() | FLOATS})
SPACES = st.sampled_from(["A1", "A2", "A3", "A4", "A5", "A6", "unresolved"])
CLASSIFY_REPORTS = st.fixed_dictionaries(
    {"labels": st.lists(SPACES, max_size=3), "inconclusive": st.lists(SPACES, max_size=2),
     "norms": st.dictionaries(SPACES, FLOATS), "coordinates": st.dictionaries(SPACES, FLOATS),
     "boundary_tangential_max": FLOATS, "boundary_normal_max": FLOATS,
     "closedness_defect": FLOATS, "coclosedness_defect": FLOATS},
    optional={"a4_coeff": FLOATS, "a5_coeff": FLOATS})

OBJECTS = st.one_of(
    DISK_FIELDS.map(ser.field_to_json),
    SERIES.map(ser.series_to_json),
    LAURENT_FIELDS.map(ser.laurent_to_json),
    TORUS_FIELDS.map(ser.torus_to_json),
    DECOMPOSITIONS,
    STATIONARY_SUMMARIES,
    TRAJECTORY_SUMMARIES,
    CLASSIFY_REPORTS,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(OBJECTS)
    def test_interchange_objects_as_json_writes_them(self, obj):
        assert ser.dumps(obj) == stdlib(obj)

    @pytest.mark.parametrize("obj", [
        ser.field_to_json(BivariateField({})),
        ser.series_to_json(HolomorphicSeries()),
        ser.laurent_to_json(LaurentField({}, r_in=0.5)),
        ser.torus_to_json(TorusField.from_terms({}, {}, band_limit=1)),
    ], ids=["field", "series", "laurent", "torus"])
    def test_empty_term_lists(self, obj):
        assert ser.dumps(obj) == stdlib(obj)

    @given(FLOATS)
    @example(-0.0)
    @example(5e-324)
    @example(1e16)
    @example(1e22)
    @example(1e-7)
    @example(0.1)
    def test_float_as_json_writes_it(self, x):
        obj = {"max_degree": 1, "terms": [{"m": 0, "n": 1, "re": x, "im": -x}],
               "residual_norm": x, "orthogonality": [[x, 0.5], [-x, 1.0]]}
        assert ser.dumps(obj) == stdlib(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["re", "im", "residual_norm", "orthogonality"])
    def test_non_finite_raises_floating_point_error(self, bad, where):
        obj = {"terms": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}], "residual_norm": 0.0,
               "orthogonality": [0.0]}
        if where in ("re", "im"):
            obj["terms"][0][where] = bad
        else:
            obj[where] = bad if where == "residual_norm" else [bad]
        with pytest.raises(FloatingPointError, match="result is not finite"):
            ser.dumps(obj)

    @pytest.mark.parametrize("obj", [
        {"x": np.float64(0.1), "y": np.float64(1.0)},
        {"terms": [{"m": 1, "n": 0, "re": 1, "im": 0.5}]},
        {"terms": [{"m": True, "n": 0, "re": 1.0, "im": 0.5}]},
        {"terms": [{"m": 1, "n": 0, "re": np.float64(1.0), "im": 0.5}]},
        {"terms": [{"m": 1, "n": 0, "re": 1.0, "im": 0.5, "note": None}]},
        {"terms": [{"m": 1, "n": 0, "re": 1.0}]},
        {"pair": (1, "a"), "empty": ()},
        {1: "one", 2.5: "two and a half"},
        {"é": "ü\n\"quoted\""},
        [], {}, "text", 3, True, None,
    ])
    def test_other_values_as_json_writes_them(self, obj):
        assert ser.dumps(obj) == stdlib(obj)

    @pytest.mark.parametrize("obj", [{"x": np.int64(1)}, {"x": object()}, {1: 1, "a": 2}])
    def test_unwritable_values_raise_as_in_json(self, obj):
        with pytest.raises(TypeError) as ours:
            ser.dumps(obj)
        with pytest.raises(TypeError) as theirs:
            stdlib(obj)
        assert str(ours.value) == str(theirs.value)


BIGGEST = 1.7976931348623157e308
# coefficients of one-term tables: signed zeros, the smallest subnormal, the
# largest floats and the values where repr switches to exponent form
EDGE_COEFFS = [complex(1.0, -0.0), complex(-0.0, 2.5), complex(5e-324, -5e-324),
               complex(BIGGEST, -BIGGEST), complex(-BIGGEST, BIGGEST), complex(1e16, 1e-7),
               complex(0.1, -0.1)]


def _corner(c):
    """The table of a degree-2 disk field whose only possible term, c, has
    index (1, 1); empty for c = 0."""
    t = np.zeros((2, 2), dtype=complex)
    t[1, 1] = c
    return t


def _center(x):
    """A band-1 torus component whose only possible term, complex(x, -0.0), is
    its mean: real, so that the component is a real field."""
    t = np.zeros((3, 3), dtype=complex)
    t[1, 1] = complex(x, -0.0)
    return t


def _decomposition(c):
    F = BivariateField(_corner(c), 2)
    return ser.decomposition_to_json(DecompositionResult(
        "conformal", (("conformal", HolomorphicSeries([0, c]).to_field()),),
        MultiplierPair(F, F), 0.0, ((1.0, 0.0), (0.0, 1.0)), 0.0))


# each nesting depth at which the CLI writes a term list, from one coefficient
NESTED = {
    "field": lambda c: ser.field_to_json(BivariateField(_corner(c), 2)),
    "stationary-xi": lambda c: {"converged": True, "iterations": 3, "residual_norm": 1e-13,
                                "xi": ser.series_to_json(HolomorphicSeries([0, 0, c]))},
    "decomposition": _decomposition,
    "torus-residual": lambda c: {"c_phi": -0.25, "c_theta": 0.5, "residual": ser.torus_to_json(
        TorusField(_center(c.real), _center(c.imag)))},
}


class TestTermArrays:
    """The term lists the *_to_json writers hand over as arrays."""

    @pytest.mark.parametrize("c", [0j] + EDGE_COEFFS, ids=repr)
    @pytest.mark.parametrize("where", NESTED)
    def test_empty_and_one_term_lists_as_json_writes_them(self, where, c):
        obj = NESTED[where](c)
        assert ser.dumps(obj) == stdlib(obj)

    def test_negative_zero_kept_by_the_table_is_written(self):
        f = BivariateField(np.array([[complex(1.0, -0.0)]]), 0)
        assert ser.dumps(ser.field_to_json(f)) == (
            '{\n  "max_degree": 0,\n  "terms": [\n    {\n      "im": -0.0,\n      "m": 0,\n'
            '      "n": 0,\n      "re": 1.0\n    }\n  ]\n}\n')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("writer", ["field", "series", "decomposition"])
    def test_non_finite_coefficient_raises_floating_point_error(self, writer, part, bad):
        c = complex(bad, 0.5) if part == "re" else complex(0.5, bad)
        obj = {"field": lambda: ser.field_to_json(BivariateField(_corner(c), 2)),
               "series": lambda: ser.series_to_json(HolomorphicSeries([1.0, c])),
               "decomposition": lambda: _decomposition(c)}[writer]()
        with pytest.raises(FloatingPointError, match="result is not finite"):
            ser.dumps(obj)

    def test_non_finite_series_exits_3_without_output(self, tmp_path, monkeypatch, capsys):
        # the adjoint multiplies the coefficients by k + 2: its series overflows
        monkeypatch.chdir(tmp_path)
        ser.write_json("series.json", {"max_degree": 4, "terms": [
            {"m": 2, "n": 0, "re": 1e308, "im": 1e308}, {"m": 4, "n": 0, "re": -1e308, "im": 0.0}]})
        assert main(["adjoint", "--in", "series.json", "--out", "out.json"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: result is not finite"), err
        assert not (tmp_path / "out.json").exists()

    def test_term_lists_never_reach_the_json_module(self, monkeypatch):
        # a degree-32 dense field, as the benchmark decomposes it: 1,215 terms written
        rng = np.random.default_rng(3)
        D = 32
        table = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
        table[np.add.outer(range(D + 1), range(D + 1)) > D] = 0
        dense = BivariateField(table, D)
        dec = ser.decomposition_to_json(conformal_decompose(dense))
        assert sum(len(oracles.term_dicts(dec[k]["terms"])) for k in ("conformal", "F", "G")) \
            == 1215
        objs = [dec, ser.field_to_json(BivariateField({(0, 1): 0.5 - 1j, (2, 0): 2.0})),
                ser.series_to_json(HolomorphicSeries([0.25, 1j, -3.0])),
                ser.laurent_to_json(LaurentField({(0, 1): 0.5 - 1j, (1, -1): 2.0}, r_in=0.5)),
                ser.torus_to_json(TorusField.from_terms(
                    {(0, 1): 1j, (0, -1): -1j}, {(0, 0): 2.0}, band_limit=1)),
                _decomposition(0.5 + 2j)]
        expected = [stdlib(obj) for obj in objs]

        def refuse(*args, **kwargs):
            raise AssertionError("dumps handed a term list to the json module")

        monkeypatch.setattr(ser.json, "dumps", refuse)
        assert [ser.dumps(obj) for obj in objs] == expected


NUMBERS = FLOATS | st.integers(-10**20, 10**20)
KEYS = st.sampled_from(["m", "n", "re", "im"])
GOOD_TERMS = st.fixed_dictionaries(
    {"m": st.integers(-4, 6), "n": st.integers(-4, 6), "re": NUMBERS, "im": NUMBERS})
JUNK = (st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63) + 1)
        | st.sampled_from([True, False, None, 1.0, math.nan, math.inf, 10**400, "1", [1]]))
# a good term with one value replaced or one key left out, or no term at all
BAD_TERMS = (st.builds(lambda t, k, v: {**t, k: v}, GOOD_TERMS, KEYS, JUNK)
             | st.builds(lambda t, k: {j: v for j, v in t.items() if j != k}, GOOD_TERMS, KEYS)
             | st.none() | st.lists(st.integers(0, 2), max_size=4) | st.text(max_size=2))
TERMS = GOOD_TERMS | BAD_TERMS


def _outcome(build):
    try:
        return build()
    except ValueError:  # FormatError is a ValueError
        return "refused"
    except OverflowError:  # finite parts whose modulus overflows; the CLI exits 3
        return "overflow"


class TestReader:
    @settings(max_examples=200, deadline=None)
    @given(DISK_FIELDS)
    def test_disk_field_round_trip(self, f):
        back = ser.field_from_json(json.loads(ser.dumps(ser.field_to_json(f))))
        assert back == f and back.max_degree == f.max_degree

    @settings(max_examples=200, deadline=None)
    @given(LAURENT_FIELDS)
    def test_laurent_field_round_trip(self, f):
        back = ser.laurent_from_json(json.loads(ser.dumps(ser.laurent_to_json(f))))
        assert back == f and back.band_limit == f.band_limit

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TERMS, max_size=6))
    @example([{"m": 0, "n": 0, "re": 1.2711610061536462e308, "im": 1.2711610061536462e308}])
    def test_accepts_and_refuses_as_the_term_loop(self, entries):
        field = _outcome(lambda: ser.field_from_json({"max_degree": 8, "terms": entries}))
        expected = _outcome(lambda: BivariateField(oracles.dict_terms(entries), max_degree=8))
        assert field == expected
        laurent = _outcome(lambda: ser.laurent_from_json(
            {"r_in": 0.5, "band_limit": 3, "terms": entries}))
        expected = _outcome(lambda: LaurentField(oracles.dict_terms(entries), r_in=0.5,
                                                 band_limit=3))
        assert laurent == expected

    @pytest.mark.parametrize("terms, message", [
        ([{"m": 1, "n": 0, "re": 1.0, "im": 0.0}, {"m": 0, "n": 0, "re": 1.0, "im": 0.0},
          {"m": 1, "n": 0, "re": 2.0, "im": 0.0}], "duplicate index (1, 0)"),
        ([{"m": -1, "n": 0, "re": 1.0, "im": 0.0}], "index below the lowest power"),
    ], ids=["duplicate", "negative-disk-index"])
    def test_refused_terms_exit_2(self, tmp_path, capsys, terms, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"max_degree": 4, "terms": terms}))
        assert main(["decompose", "--in", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_disk_keeps_tiny_terms(self):
        f = ser.field_from_json({"max_degree": 2, "terms": [
            {"m": 0, "n": 0, "re": 1.0, "im": 0.0}, {"m": 1, "n": 1, "re": 1e-301, "im": 0.0}]})
        assert f.terms() == {(0, 0): 1.0, (1, 1): 1e-301} and len(f) == 2

    def test_laurent_keeps_tiny_terms_at_negative_indices(self):
        f = ser.laurent_from_json({"r_in": 0.5, "band_limit": 2, "terms": [
            {"m": -2, "n": 1, "re": 1e-301, "im": 0.0}, {"m": 0, "n": -1, "re": 0.0, "im": 2.0}]})
        assert f.terms() == {(-2, 1): 1e-301, (0, -1): 2j}

    def test_negative_zero_part_written_back_as_zero(self):
        f = ser.field_from_json({"max_degree": 1, "terms": [
            {"m": 1, "n": 0, "re": -0.0, "im": 1.0}]})
        assert '"re": 0.0' in ser.dumps(ser.field_to_json(f))

    def test_integer_coefficient_accepted(self):
        f = ser.field_from_json({"max_degree": 2, "terms": [{"m": 1, "n": 0, "re": 2, "im": -1}]})
        assert f.terms() == {(1, 0): 2 - 1j}

    def test_degree_above_max_degree_refused(self):
        with pytest.raises(ser.FormatError, match="exceeds max_degree"):
            ser.field_from_json({"max_degree": 2, "terms": [
                {"m": 2, "n": 1, "re": 1.0, "im": 0.0}]})
