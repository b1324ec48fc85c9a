"""Arithmetic, derivative, inner-product, and evaluation contracts of the series layer."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hodge import serialization as ser
from conformal_hodge import series as s
from conformal_hodge.annulus import LaurentField
from conformal_hodge.series import (
    BivariateField,
    HolomorphicSeries,
    TruncationWarning,
    monomial,
)

import oracles

PI = math.pi


def field_of(terms, **kw):
    return BivariateField(terms, **kw)


class TestCombine:
    def test_multiply_single_terms(self):
        assert s.convolve(monomial(1, 0), monomial(0, 1)) == monomial(1, 1)

    def test_conjugate_swaps_indices(self):
        assert s.conjugate(monomial(2, 0)) == monomial(0, 2)

    def test_add_disjoint_supports(self):
        f = field_of({(0, 0): 1, (1, 0): 1})
        assert s.add(f, monomial(0, 1)) == field_of(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        )

    def test_subtract_and_scale(self):
        f = field_of({(1, 1): 2.0})
        assert s.subtract(f, monomial(1, 1)) == monomial(1, 1)
        assert s.scale(f, 0.5j) == monomial(1, 1, 1j)

    def test_add_max_degree_is_max_of_inputs(self):
        f = field_of({(1, 0): 1}, max_degree=5)
        g = field_of({(0, 1): 1}, max_degree=3)
        assert (f + g).max_degree == 5

    def test_multiply_is_exact_above_degree_16(self):
        f = s.BivariateField({(9, 0): 1.0}, max_degree=9)
        g = s.BivariateField({(8, 1): 2.0}, max_degree=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            out = f * g
        assert out == monomial(17, 1, 2.0) and out.max_degree == 18

    def test_multiply_keeps_exactness(self):
        f = s.BivariateField({(9, 0): 1.0}, max_degree=9)
        out = s.convolve(f, f)
        assert out == monomial(18, 0) and out.max_degree == 18

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            s.wirtinger(monomial(1, 0), "divide")


class TestInvariants:
    def test_indices_must_fit_max_degree(self):
        with pytest.raises(ValueError):
            BivariateField({(3, 3): 1.0}, max_degree=4)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            BivariateField({(-1, 0): 1.0})

    def test_tiny_coefficients_kept(self):
        f = BivariateField({(0, 0): 1e-200, (1, 0): 5e-324})
        assert f.coefficient(0, 0) == 1e-200 and f.coefficient(1, 0) == 5e-324

    def test_zero_coefficients_omitted(self):
        assert BivariateField({(1, 0): 0.0}) == BivariateField({})


class TestWirtinger:
    def test_power_rule_z(self):
        assert s.wirtinger(monomial(3, 0), "d_z") == monomial(2, 0, 3.0)

    def test_holomorphic_kernel(self):
        assert not s.wirtinger(monomial(2, 0), "d_zbar")

    def test_mixed_term(self):
        assert s.wirtinger(monomial(1, 1), "d_zbar") == monomial(1, 0)

    def test_cr_residual_examples(self):
        for m in range(5):
            assert not s.cr_residual(monomial(m, 0))
        assert s.cr_residual(monomial(0, 1)) == monomial(0, 0, 2.0)
        assert s.cr_residual(monomial(1, 1)) == monomial(1, 0, 2.0)

    def test_cr_residual_component_contract(self):
        # Re = u_x - v_y and Im = v_x + u_y, checked by finite differences
        rng = np.random.default_rng(3)
        f = s.random_field(rng, 4)
        z0, h = 0.31 + 0.17j, 1e-6

        def u(p):
            return f(p).real

        def v(p):
            return f(p).imag

        ux = (u(z0 + h) - u(z0 - h)) / (2 * h)
        vy = (v(z0 + 1j * h) - v(z0 - 1j * h)) / (2 * h)
        vx = (v(z0 + h) - v(z0 - h)) / (2 * h)
        uy = (u(z0 + 1j * h) - u(z0 - 1j * h)) / (2 * h)
        res = s.cr_residual(f)(z0)
        assert res.real == pytest.approx(ux - vy, abs=1e-6)
        assert res.imag == pytest.approx(vx + uy, abs=1e-6)
        dc = s.div_curl(f)(z0)
        assert dc.real == pytest.approx(ux + vy, abs=1e-6)
        assert dc.imag == pytest.approx(vx - uy, abs=1e-6)

    def test_div_curl_examples(self):
        assert s.div_curl(monomial(1, 0)) == monomial(0, 0, 2.0)
        assert s.div_curl(monomial(1, 0, 1j)) == monomial(0, 0, 2j)

    def test_div_of_holomorphic_is_twice_real_derivative(self):
        rng = np.random.default_rng(5)
        xi = oracles.random_series(rng, 6)
        dc = s.div_curl(xi.to_field())
        z0 = 0.4 - 0.2j
        assert dc(z0) == pytest.approx(2 * xi.derivative()(z0))


class TestInnerProduct:
    def test_z_z(self):
        assert s.inner_product(monomial(1, 0), monomial(1, 0)) == pytest.approx(
            PI / 2
        )

    def test_one_one_is_disk_area(self):
        assert s.inner_product(monomial(0, 0), monomial(0, 0)).real == pytest.approx(PI)

    def test_z2_zbar_vanishes_vs_quadrature(self):
        got = s.inner_product(monomial(2, 0), monomial(0, 1))
        oracle = oracles.quad_inner({(2, 0): 1.0}, {(0, 1): 1.0})
        assert got == 0
        assert abs(oracle - got) < 1e-12

    def test_real_value_is_real_part(self):
        v = s.inner_product(monomial(2, 1, 1 + 2j), monomial(1, 0, 0.5 - 1j))
        assert type(v) is complex  # the real pairing <f, g> is v.real

    def test_closed_form_vs_quadrature_all_monomials(self):
        # all pairs with m, n, p, q <= 6 against one set of quadrature moments
        z, w = oracles.polar_quad_nodes(64, 256)
        conj = np.conj(z)
        moments = {}
        for a in range(13):
            for b in range(13):
                moments[(a, b)] = complex(np.sum(z**a * conj**b * w))
        worst = 0.0
        for m in range(7):
            for n in range(7):
                for p in range(7):
                    for q in range(7):
                        got = s.inner_product(monomial(m, n), monomial(p, q))
                        worst = max(worst, abs(got - moments[(m + q, n + p)]))
        assert worst < 1e-10


class TestEvaluate:
    def test_examples(self):
        assert monomial(2, 0)(1j) == pytest.approx(-1)
        assert monomial(1, 1)(0.5) == pytest.approx(0.25)
        f = BivariateField({(0, 0): 1, (0, 1): 1})
        assert f(1j) == pytest.approx(1 - 1j)

    def test_matches_direct_power_sum(self):
        rng = np.random.default_rng(11)
        f = s.random_field(rng, 6)
        pts = (rng.uniform(-0.7, 0.7, 8) + 1j * rng.uniform(-0.7, 0.7, 8))
        direct = oracles.eval_terms(f.terms(), pts)
        horner = s.evaluate_grid(f, pts)
        assert np.max(np.abs(direct - horner)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_laurent_field_matches_direct_power_sum(self, seed):
        # band-3 Laurent field on the annulus 0.5 <= |z| <= 1, at scalar and array points
        rng = np.random.default_rng(seed)
        terms = {(m, n): complex(*rng.standard_normal(2))
                 for m in range(-3, 4) for n in range(-3, 4)}
        f = LaurentField(terms, r_in=0.5)
        pts = rng.uniform(0.5, 1.0, 12) * np.exp(2j * math.pi * rng.random(12))
        direct = oracles.eval_terms(terms, pts)
        got = s.evaluate_grid(f, pts)
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 1e-12
        for z, want in zip(pts[:3].tolist(), direct[:3].tolist()):
            assert abs(s.evaluate_grid(f, z) - want) < 1e-12 * abs(want)
            assert f(z) == s.evaluate_grid(f, z)


# coefficients below ~1e-154 square to subnormal/zero in double precision,
# which would void strict-positivity checks; exact zero stays allowed
small_complex = st.one_of(
    st.just(0j),
    st.complex_numbers(
        min_magnitude=1e-6, max_magnitude=3, allow_nan=False, allow_infinity=False
    ),
)


def field_strategy(max_deg=5):
    idx = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)).filter(
        lambda t: t[0] + t[1] <= max_deg
    )
    return st.dictionaries(idx, small_complex, max_size=8).map(
        lambda d: BivariateField(d, max_degree=max_deg)
    )


class TestProperties:
    @given(field_strategy(), field_strategy())
    @settings(max_examples=60, deadline=None)
    def test_conjugation_adjointness(self, f, g):
        # conjugating both slots transposes the pairing:
        # <<conj f, conj g>> = <<g, f>> = conj(<<f, g>>)
        lhs = s.inner_product(s.conjugate(f), s.conjugate(g))
        rhs = s.inner_product(g, f)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
        assert abs(lhs - s.inner_product(f, g).conjugate()) <= 1e-10 * (
            1 + abs(lhs)
        )

    @given(field_strategy())
    @settings(max_examples=60, deadline=None)
    def test_inner_product_positivity(self, f):
        v = s.inner_product(f, f)
        assert abs(v.imag) <= 1e-12 * (1 + abs(v))
        assert v.real >= -1e-12
        if f:
            assert v.real > 0

    def test_positivity_on_monomial_basis(self):
        for m in range(9):
            for n in range(9 - m):
                assert s.inner_product(monomial(m, n), monomial(m, n)).real > 0

    @given(field_strategy(3), field_strategy(3))
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, f, g):
        prod = s.convolve(f, g)
        lhs = s.wirtinger(prod, "d_z")
        rhs = s.add(
            s.convolve(s.wirtinger(f, "d_z"), g),
            s.convolve(f, s.wirtinger(g, "d_z")),
        )
        gap = s.coefficient_norm(s.subtract(lhs, rhs))
        assert gap <= 1e-9 * (1 + s.coefficient_norm(lhs))

    def test_cr_zero_iff_series_roundtrip(self):
        rng = np.random.default_rng(23)
        xi = oracles.random_series(rng, 8)
        f = xi.to_field()
        assert not s.cr_residual(f)
        assert HolomorphicSeries.from_field(f) == xi
        g = s.add(f, monomial(1, 2, 1e-3))
        assert s.cr_residual(g)
        with pytest.raises(ValueError):
            HolomorphicSeries.from_field(g)

    def test_from_field_refuses_laurent_fields(self):
        # column 0 of an annulus table is the zbar^-band column, not zbar^0: reading it
        # returned an empty series for 1 + 2z
        f = LaurentField({(0, 0): 1, (1, 0): 2}, r_in=0.5)
        with pytest.raises(TypeError):
            HolomorphicSeries.from_field(f)


class TestHolomorphicSeries:
    def test_roundtrip_only_m0_terms(self):
        h = HolomorphicSeries([1, 2j, 0, -0.5])
        assert all(n == 0 for (_, n) in h.to_field().terms())

    def test_compose_horner(self):
        outer = HolomorphicSeries([0, 0, 1.0])  # w^2
        inner = HolomorphicSeries([0, 1.0, 0.5])
        got = outer.compose(inner, max_degree=8)
        expect = inner * inner
        assert got == expect

    def test_derivative_antiderivative(self):
        h = HolomorphicSeries([1.0, 2.0, 3.0])
        assert oracles.antiderivative(h.derivative()) == HolomorphicSeries([0, 2.0, 3.0])

    def test_evaluate(self):
        h = HolomorphicSeries([1, 1, 1])
        assert h(0.5) == pytest.approx(1.75)


class TestSerialization:
    def test_field_json_roundtrip(self):
        rng = np.random.default_rng(40)
        f = s.random_field(rng, 5)
        blob = ser.dumps(ser.field_to_json(f))
        back = ser.field_from_json(json.loads(blob))
        assert back == f
        assert back.max_degree == f.max_degree

    def test_terms_sorted_lexicographically(self):
        f = BivariateField({(2, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
        terms = json.loads(ser.dumps(ser.field_to_json(f)))["terms"]
        assert [(t["m"], t["n"]) for t in terms] == [(0, 1), (1, 1), (2, 0)]

    def test_duplicate_indices_rejected(self):
        bad = {"max_degree": 2, "terms": [
            {"m": 1, "n": 0, "re": 1.0, "im": 0.0},
            {"m": 1, "n": 0, "re": 2.0, "im": 0.0},
        ]}
        with pytest.raises(ser.FormatError):
            ser.field_from_json(bad)

    def test_malformed_terms_rejected(self):
        with pytest.raises(ser.FormatError):
            ser.field_from_json({"max_degree": 2, "terms": [{"m": 0}]})
