"""Derived values built through the private constructors, against the public ones.

Every operation builds its result through its value type's ``_like``, which
trims and freezes the table the operation has just computed but re-runs no
check that the operation proves.  Each operation here runs twice: as it
stands, and with every ``_like`` sent through the public constructor, which
re-checks the bound.  The two results must agree bit for bit.  Input from
outside still meets every check of the public constructors, and the guard
counts pin how many public constructor calls the hot paths make.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import series as s
from conformal_hodge.annulus import LaurentField, poisson_annulus
from conformal_hodge.disk import conformal_decompose, conformal_split
from conformal_hodge.dynamics import GeodesicState, geodesic_rhs
from conformal_hodge.mapping import ConformalMap
from conformal_hodge.series import BivariateField, HolomorphicSeries

R_IN = 0.5
COEFFS = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                          1 + 0j, -2.5 + 0.5j, 1e-300j]) | st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False)


def _disk_fields(max_deg=4):
    idx = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)).filter(
        lambda t: t[0] + t[1] <= max_deg)
    return st.builds(lambda d, extra: BivariateField(d, max_degree=max_deg + extra),
                     st.dictionaries(idx, COEFFS, max_size=8), st.integers(0, 2))


def _laurent(terms, levels):
    """A Laurent field on R_IN from {(m, n): c}, with the terms spread over levels."""
    keys = list(terms)
    ell = np.array([k % levels for k in range(len(keys))], dtype=np.int64)
    mn = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
    c = np.array(list(terms.values()), dtype=complex)
    return LaurentField((ell, mn[:, 0], mn[:, 1], c), R_IN)


LAURENT_TERMS = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), COEFFS,
                                max_size=8)
LAURENT_FIELDS = st.builds(_laurent, LAURENT_TERMS, st.integers(1, 3))
SERIES = st.lists(COEFFS, max_size=6).map(HolomorphicSeries)
# terms on the degree bound: a result bound one too small fails the public route
TIGHT = (BivariateField({(4, 0): 1.0, (0, 4): 2j}, max_degree=4),
         BivariateField({(1, 3): -1.0, (3, 1): 0.5}, max_degree=4))
SCALARS = st.sampled_from([0, -1, 0.5, 2j, -0.0])


@contextmanager
def public_route():
    """Every private constructor sent through its public constructor."""
    with mock.patch.object(BivariateField, "_like",
                           classmethod(lambda cls, table, bound: BivariateField(table, bound))), \
         mock.patch.object(LaurentField, "_like",
                           lambda self, table, bound: LaurentField(table, self.r_in, bound)), \
         mock.patch.object(HolomorphicSeries, "_like",
                           classmethod(lambda cls, coeffs: HolomorphicSeries(coeffs))):
        yield


def _state(x):
    """Everything that makes a value: type, domain, bound and table bits, and the flag."""
    a = x.coeffs if isinstance(x, HolomorphicSeries) else x.table
    return (type(x), getattr(x, "r_in", None), getattr(x, "max_degree", None),
            getattr(x, "band_limit", None), a.dtype, a.shape, a.tobytes(), a.flags.writeable)


def assert_same_by_both_routes(op, *args):
    private = op(*args)
    with public_route():
        public = op(*args)
    assert _state(private) == _state(public)
    assert _state(private)[-1] is False  # read-only


FIELD_OPS = {
    "add": lambda f, g, a: s.add(f, g),
    "subtract": lambda f, g, a: s.subtract(f, g),
    "scale": lambda f, g, a: s.scale(f, a),
    "conjugate": lambda f, g, a: s.conjugate(f),
    "d_z": lambda f, g, a: s.wirtinger(f, "d_z"),
    "d_zbar": lambda f, g, a: s.wirtinger(f, "d_zbar"),
    "real_part": lambda f, g, a: s.real_part(f),
    "imag_part": lambda f, g, a: s.imag_part(f),
    "holomorphic_part": lambda f, g, a: f.holomorphic_part(),
}


class TestBothRoutesAgree:
    @pytest.mark.parametrize("name", FIELD_OPS)
    @settings(max_examples=60, deadline=None)
    @given(f=_disk_fields(), g=_disk_fields(), a=SCALARS)
    @example(f=BivariateField({}), g=BivariateField({}), a=-1)
    @example(f=TIGHT[0], g=TIGHT[1], a=-1)
    def test_disk_field_operations(self, name, f, g, a):
        assert_same_by_both_routes(FIELD_OPS[name], f, g, a)

    @settings(max_examples=60, deadline=None)
    @given(f=_disk_fields(), g=_disk_fields())
    @example(f=BivariateField({}), g=BivariateField({(1, 1): -0.0 + 1j}))
    @example(f=TIGHT[0], g=TIGHT[1])
    def test_convolve(self, f, g):
        assert_same_by_both_routes(s.convolve, f, g)

    @pytest.mark.parametrize("name", FIELD_OPS)
    @settings(max_examples=60, deadline=None)
    @given(f=LAURENT_FIELDS, g=LAURENT_FIELDS, a=SCALARS)
    def test_laurent_field_operations_with_levels(self, name, f, g, a):
        assert_same_by_both_routes(FIELD_OPS[name], f, g, a)

    @settings(max_examples=20, deadline=None)
    @given(f=st.builds(_laurent, LAURENT_TERMS, st.just(1)))
    def test_poisson_annulus(self, f):
        assert_same_by_both_routes(poisson_annulus, f)

    def test_laurent_subtraction_that_cancels_the_edge_term_shrinks_the_band(self):
        f = LaurentField({(2, 0): 1.0, (0, 1): 0.5, (-1, 1): 2j}, R_IN)
        edge = LaurentField({(2, 0): 1.0}, R_IN)
        assert f.band_limit == 2
        assert_same_by_both_routes(s.subtract, f, edge)
        assert s.subtract(f, edge).band_limit == 1

    @pytest.mark.parametrize("name, op", [
        ("add", lambda p, q: p + q), ("subtract", lambda p, q: p - q),
        ("neg", lambda p, q: -p), ("mul", lambda p, q: p * q),
        ("mul-scalar", lambda p, q: p * -1.0), ("derivative", lambda p, q: p.derivative()),
        ("compose", lambda p, q: p.compose(q, 6)), ("to_field", lambda p, q: p.to_field()),
    ])
    @settings(max_examples=60, deadline=None)
    @given(p=SERIES, q=SERIES)
    @example(p=HolomorphicSeries(), q=HolomorphicSeries([-0.0, 1.0, 0.0]))
    def test_series_operations(self, name, op, p, q):
        assert_same_by_both_routes(op, p, q)


class TestOutsideInputStillChecked:
    def test_disk_table_above_max_degree(self):
        with pytest.raises(ValueError, match="exceeds max_degree 1"):
            BivariateField(np.array([[0, 0], [0, 1.0]]), 1)

    def test_disk_terms_above_max_degree(self):
        with pytest.raises(ValueError, match="exceeds max_degree 2"):
            BivariateField({(2, 1): 1.0}, max_degree=2)

    def test_laurent_table_wider_than_its_band(self):
        with pytest.raises(ValueError, match="outside band limit 1"):
            LaurentField(np.ones((4, 4), dtype=complex), R_IN, band_limit=1)

    def test_laurent_radius_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            LaurentField(np.ones((3, 3), dtype=complex), 1.0, band_limit=1)

    @pytest.mark.parametrize("build", [
        lambda: LaurentField((np.array([-1]), np.array([0]), np.array([0]), np.array([1j])), R_IN),
        lambda: LaurentField((np.array([0]),) * 4 + (np.array([1j]),), R_IN),
        lambda: BivariateField((np.array([1]), np.array([0]), np.array([0]), np.array([1j])), 4),
    ], ids=["negative", "two-level-arrays", "disk"])
    def test_log_levels_only_one_array_from_0_on_an_annulus(self, build):
        with pytest.raises(ValueError, match="log levels need an annulus"):
            build()


@contextmanager
def counting_public_constructors():
    calls = Counter()

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            calls[cls.__name__] += 1
            init(self, *args, **kwargs)
        return mock.patch.object(cls, "__init__", wrapper)

    with counted(BivariateField), counted(LaurentField), counted(HolomorphicSeries):
        yield calls


class TestPublicConstructorCalls:
    """Counts measured when the private constructors came in; a rise shows lost work."""

    def test_one_geodesic_stage(self):
        mapping = ConformalMap(HolomorphicSeries([0, 1, 0.05 + 0.02j]), validate=False)
        xi = HolomorphicSeries([0.02 * (0.3 + 0.2j) / (k + 1) for k in range(8)])
        state = GeodesicState(mapping, xi)
        with counting_public_constructors() as calls:
            geodesic_rhs(state, proj_degree=9, max_degree=16)
        # the one left is the literal z^2 of the mapped adjoint
        assert calls == Counter({"HolomorphicSeries": 1})

    def test_one_conformal_decompose_of_degree_32(self):
        f = s.random_field(np.random.default_rng(5), 32)
        with counting_public_constructors() as calls:
            conformal_decompose(f)
        assert calls == Counter()

    def test_one_annulus_split(self):
        f = LaurentField({(2, -1): 1 + 2j, (0, 1): 0.5, (-2, 2): 0.3}, R_IN)
        with counting_public_constructors() as calls:
            conformal_split(f)
        assert calls == Counter()
