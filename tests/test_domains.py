"""Annulus Laurent calculus, torus projection, and the subspace catalog."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import annulus, disk
from conformal_hodge.annulus import (
    LaurentField,
    NonConformalInputError,
    annulus_classify,
    boundary_trace,
    laurent_monomial,
    poisson_annulus,
)
from conformal_hodge.catalog import hodge_catalog
from conformal_hodge.series import (
    add,
    coefficient_norm,
    conjugate,
    imag_part,
    inner_product,
    laplacian,
    norm,
    real_part,
    scale,
    subtract,
)
from conformal_hodge.torus import TorusField, torus_project_con

import oracles

PI = math.pi
R_IN = 0.5


class TestLaurentTable:
    def test_tuple_and_dict_give_equal_fields(self):
        terms = {(-2, 1): 1.5 - 0.5j, (0, 0): 2.0, (3, -1): 0.25j}
        m, n = (np.array(k) for k in zip(*terms))
        arrays = (m, n, np.array(list(terms.values())))
        for band in (None, 3, 40):
            assert LaurentField(arrays, R_IN, band) == LaurentField(terms, R_IN, band)
        assert LaurentField(arrays, R_IN).band_limit == 3

    def test_declared_band_bounds_the_input_only(self):
        f = LaurentField({(1, 2): 1.0}, r_in=0.01, band_limit=512)
        assert f.band_limit == 2 and f.table.shape == (4, 5)
        with pytest.raises(ValueError, match="outside band limit 1"):
            LaurentField({(1, 2): 1.0}, r_in=0.01, band_limit=1)

    @given(st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           st.complex_numbers(max_magnitude=10, allow_nan=False), max_size=4),
           st.integers(0, 512))
    @settings(max_examples=60, deadline=None)
    def test_table_is_a_function_of_the_terms(self, terms, pad):
        own = LaurentField(terms, r_in=R_IN)
        declared = LaurentField(terms, r_in=R_IN, band_limit=own.band_limit + pad)
        padded = LaurentField(np.pad(own.table, ((pad, 0), (pad, 0))), R_IN,
                              own.band_limit + pad)
        powers = [abs(k) for mn, c in terms.items() if c for k in mn]
        assert own.band_limit == max(powers, default=0)
        for f in (declared, padded):
            assert f == own and f.band_limit == own.band_limit
            assert f.table.tobytes() == own.table.tobytes()


class TestAnnulusInner:
    def test_log_moment_for_pole(self):
        f = laurent_monomial(-1, 0, 1.0, r_in=R_IN)
        got = inner_product(f, f)
        assert got == pytest.approx(2 * PI * math.log(1 / R_IN))
        oracle = oracles.quad_inner({(-1, 0): 1.0}, {(-1, 0): 1.0}, r_inner=R_IN)
        assert abs(got - oracle) < 1e-10

    def test_area(self):
        one = laurent_monomial(0, 0, 1.0, r_in=R_IN)
        assert inner_product(one, one).real == pytest.approx(PI * (1 - R_IN**2))

    def test_angular_orthogonality(self):
        z = laurent_monomial(1, 0, 1.0, r_in=R_IN)
        one = laurent_monomial(0, 0, 1.0, r_in=R_IN)
        assert inner_product(z, one) == 0

    def test_one_over_z_orthogonal_to_i_over_z_in_real_pairing(self):
        f = laurent_monomial(-1, 0, 1.0, r_in=R_IN)
        g = laurent_monomial(-1, 0, 1j, r_in=R_IN)
        assert inner_product(f, g).real == pytest.approx(0.0)

    def test_random_vs_quadrature(self):
        rng = np.random.default_rng(31)
        terms_f = {(m, n): complex(*rng.standard_normal(2))
                   for m in range(-2, 3) for n in range(-2, 3)}
        terms_g = {(m, n): complex(*rng.standard_normal(2))
                   for m in range(-2, 3) for n in range(-2, 3)}
        f = LaurentField(terms_f, r_in=R_IN)
        g = LaurentField(terms_g, r_in=R_IN)
        got = inner_product(f, g)
        oracle = oracles.quad_inner(terms_f, terms_g, n_radial=96, r_inner=R_IN)
        assert abs(got - oracle) < 1e-10 * (1 + abs(oracle))

    def test_mismatched_domains_rejected(self):
        f = laurent_monomial(0, 0, 1.0, r_in=0.5)
        g = laurent_monomial(0, 0, 1.0, r_in=0.25)
        with pytest.raises(ValueError):
            inner_product(f, g)


class TestAnnulusClassify:
    def test_pole_basis(self):
        c = annulus_classify(laurent_monomial(-1, 0, 1.0, r_in=R_IN))
        assert (c.a4_coeff, c.a5_coeff) == (0.0, 1.0)
        assert not c.a6_part

        c = annulus_classify(laurent_monomial(-1, 0, 1j, r_in=R_IN))
        assert (c.a4_coeff, c.a5_coeff) == (1.0, 0.0)

    def test_z_is_pure_a6(self):
        c = annulus_classify(laurent_monomial(1, 0, 1.0, r_in=R_IN))
        assert c.a4_coeff == 0 and c.a5_coeff == 0
        assert c.a6_part == laurent_monomial(1, 0, 1.0, r_in=R_IN)
        # the a6 representative pairs to zero against both pole directions
        for c0 in (1.0, 1j):
            ip = inner_product(
                c.a6_part, laurent_monomial(-1, 0, c0, r_in=R_IN)
            ).real
            assert ip == pytest.approx(0.0)

    def test_non_conformal_rejected(self):
        with pytest.raises(NonConformalInputError):
            annulus_classify(laurent_monomial(0, 1, 1.0, r_in=R_IN))

    def test_classification_is_isometric(self):
        rng = np.random.default_rng(41)
        pole_sq = inner_product(
            laurent_monomial(-1, 0, 1.0, r_in=R_IN),
            laurent_monomial(-1, 0, 1.0, r_in=R_IN),
        ).real
        for _ in range(6):
            terms = {(m, 0): complex(*rng.standard_normal(2)) for m in range(-3, 4)}
            h = LaurentField(terms, r_in=R_IN)
            c = annulus_classify(h)
            total = norm(h) ** 2
            split = (
                c.a4_coeff**2 * pole_sq
                + c.a5_coeff**2 * pole_sq
                + norm(c.a6_part) ** 2
            )
            assert abs(total - split) <= 1e-10 * total


class TestAnnulusPoisson:
    def test_reproduces_rhs_exactly(self):
        rng = np.random.default_rng(51)
        terms = {(m, n): complex(*rng.standard_normal(2))
                 for m in range(-2, 3) for n in range(-2, 3)}
        rhs = LaurentField(terms, r_in=R_IN).real_part()
        F = poisson_annulus(rhs)
        diff = subtract(laplacian(F), rhs)
        assert diff.coefficient_norm() < 1e-12 * max(rhs.coefficient_norm(), 1)

    def test_boundary_zero_both_circles(self):
        rng = np.random.default_rng(52)
        terms = {(m, n): complex(*rng.standard_normal(2))
                 for m in range(-2, 3) for n in range(-2, 3)}
        rhs = LaurentField(terms, r_in=R_IN).real_part()
        F = poisson_annulus(rhs)
        for radius in (1.0, R_IN):
            trace = boundary_trace(F, radius)
            assert np.abs(trace).max() < 1e-12 * max(rhs.coefficient_norm(), 1)

    def test_vs_fd_oracle(self):
        rhs_terms = {(0, 0): 2.0, (1, 0): 0.5, (0, 1): 0.5, (-1, -1): 1.0}
        rhs = LaurentField(rhs_terms, r_in=R_IN)
        F = poisson_annulus(rhs)
        pts, vals = oracles.fd_poisson_annulus_values(rhs_terms, R_IN, n=2048)
        ours = oracles.eval_log_laurent(F, pts)
        assert np.max(np.abs(ours - vals)) < 1e-5

    def test_size_follows_the_terms_not_the_declared_band(self):
        # z zbar / 16 minus its mode-0 trace, which {1, ln(z zbar)} absorbs: the
        # output lives on its least band, 2, with two levels
        F = poisson_annulus(LaurentField({(1, 1): 1.0}, r_in=R_IN, band_limit=60))
        assert F.band_limit == 2 and F.table.shape == (2, 5, 5)


@st.composite
def laurent_fields(draw):
    """Dense complex Laurent fields of band 0..8 on r_in in [0.1, 0.9]."""
    band = draw(st.integers(0, 8))
    r_in = draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = range(-band, band + 1)
    return LaurentField({(m, n): complex(*rng.standard_normal(2)) for m in idx for n in idx},
                        r_in=r_in)


def trace_bound(F, radius):
    """Sum of the moduli of the terms of F on |z| = radius: the scale of its trace's roundoff."""
    return sum(abs(c) * abs(2.0 * math.log(radius)) ** ell * radius ** (m + n)
               for (ell, m, n), c in oracles.level_terms(F).items())


@given(laurent_fields())
@example(laurent_monomial(1, 0, 1.0, r_in=R_IN))  # z: no real-valued counterpart
@example(LaurentField({(-1, -1): 1.0j, (-1, 0): 0.5}, r_in=0.7))  # the ln^2 and ln terms
@settings(max_examples=60, deadline=None)
def test_poisson_annulus_is_complex_linear(rhs):
    """P(r) solves Laplace(P) = r with P = 0 on both circles for complex r, is the sum of
    the solves of the real and imaginary parts, and commutes with conjugation."""
    P = poisson_annulus(rhs)
    gap = coefficient_norm(subtract(laplacian(P), rhs))
    assert gap <= 1e-12 * max(rhs.coefficient_norm(), 1.0)
    for radius in (1.0, rhs.r_in):
        assert np.abs(boundary_trace(P, radius)).max() <= 1e-12 * max(trace_bound(P, radius), 1e-300)
    parts = add(poisson_annulus(rhs.real_part()), scale(poisson_annulus(imag_part(rhs)), 1j))
    assert coefficient_norm(subtract(P, parts)) <= 1e-12 * P.coefficient_norm()
    conj = poisson_annulus(conjugate(rhs))
    assert conj.band_limit == P.band_limit
    assert np.array_equal(conj.table, conjugate(P).table)


def test_split_solves_once_for_real_potentials(monkeypatch):
    # F and G are the parts of the one complex potential Phi = F + iG
    calls = []
    solve = annulus.poisson_annulus
    monkeypatch.setattr(annulus, "poisson_annulus", lambda rhs: calls.append(rhs) or solve(rhs))
    rng = np.random.default_rng(7)
    f = LaurentField({(m, n): complex(*rng.standard_normal(2))
                      for m in range(-3, 4) for n in range(-3, 4)}, r_in=R_IN)
    _, F, G, _, _, _, residue = disk.conformal_split(f)
    assert calls == [residue]
    for potential in (F, G):  # every coefficient equal, a zero's sign aside
        assert np.array_equal(potential.table, real_part(potential).table)


@given(laurent_fields())
@example(LaurentField({(0, 0): 1.5 + 0.5j}, r_in=0.3))  # band-0 right-hand side
@example(LaurentField({(-1, -1): 1.0, (1, 0): 0.5j}, r_in=0.7))  # the ln^2 term
@settings(max_examples=60, deadline=None)
def test_level_stack_matches_tuple_of_levels_route(f):
    """The level-stacked Poisson solve and split agree with the tuple-of-levels route."""
    rhs = f.real_part()
    F, ref = poisson_annulus(rhs), oracles.levels_poisson_annulus(rhs)
    got, want = oracles.level_terms(F), oracles.level_terms(ref)
    size = max(map(abs, want.values()))
    assert all(abs(got.get(k, 0j) - want.get(k, 0j)) <= 1e-12 * size for k in {*got, *want})
    for radius in (1.0, f.r_in):
        want = ref.boundary_trace(radius)
        modes = np.arange(-2 * F.band_limit, 2 * F.band_limit + 1).tolist()
        got = dict(zip(modes, boundary_trace(F, radius)))
        tol = 1e-12 * max(trace_bound(F, radius), 1e-300)
        assert all(abs(got.get(k, 0j) - want.get(k, 0j)) <= tol for k in {*got, *want})
    _, _, _, gF, sG, stray, _ = disk.conformal_split(f)
    _, _, ref_gF, ref_sG, ref_stray = oracles.levels_conformal_split(f)
    for got, want in ((norm(gF), ref_gF.norm()), (norm(sG), ref_sG.norm())):
        assert abs(got - want) <= 1e-12 * want
    assert abs(stray - ref_stray) <= 1e-12 * max(gF.coefficient_norm(), sG.coefficient_norm(), 1.0)


class TestTorus:
    def test_projection_extracts_means(self):
        # f = (2 + cos theta, sin phi)
        f = TorusField.from_terms(
            {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5},
            {(0, 1): -0.5j, (0, -1): 0.5j},
            band_limit=1,
        )
        out = torus_project_con(f)
        assert (out.c_theta, out.c_phi) == (2.0, 0.0)
        u, v = out.residual.evaluate(0.3, 1.1)
        assert u == pytest.approx(math.cos(0.3))
        assert v == pytest.approx(math.sin(1.1))

    def test_constant_field(self):
        f = TorusField.from_terms({(0, 0): 1.5}, {(0, 0): -0.25}, band_limit=1)
        out = torus_project_con(f)
        assert (out.c_theta, out.c_phi) == (1.5, -0.25)
        assert out.residual.norm() == 0

    def test_oscillatory_field_has_zero_mean(self):
        f = TorusField.from_terms(
            {(1, 0): -0.5j, (-1, 0): 0.5j}, {}, band_limit=1
        )  # (sin theta, 0)
        out = torus_project_con(f)
        assert (out.c_theta, out.c_phi) == (0.0, 0.0)
        assert out.residual.inner(f) == pytest.approx(f.inner(f))

    def test_constants_orthogonal_to_residual(self):
        rng = np.random.default_rng(61)
        f = TorusField.from_terms(
            {(j, k): complex(*rng.standard_normal(2))
             for j in range(-2, 3) for k in range(-2, 3)},
            {(j, k): complex(*rng.standard_normal(2))
             for j in range(-2, 3) for k in range(-2, 3)},
            band_limit=2,
        )
        out = torus_project_con(f)
        const = TorusField.from_terms(
            {(0, 0): out.c_theta}, {(0, 0): out.c_phi}, band_limit=2
        )
        assert abs(const.inner(out.residual)) < 1e-12 * max(f.norm(), 1) ** 2

    def test_nonreal_components_rejected(self):
        side = np.zeros((3, 3), dtype=complex)
        bad = side.copy()
        bad[2, 2] = 1.0  # breaks Hermitian symmetry
        with pytest.raises(ValueError):
            TorusField(bad, side)

    def test_json_roundtrip(self):
        from conformal_hodge import serialization as ser

        rng = np.random.default_rng(62)
        f = TorusField.from_terms(
            {(j, k): complex(*rng.standard_normal(2))
             for j in range(-1, 2) for k in range(-1, 2)},
            {(0, 1): 1j},
            band_limit=1,
        )
        back = ser.torus_from_json(json.loads(ser.dumps(ser.torus_to_json(f))))
        assert np.allclose(back.theta_coeffs, f.theta_coeffs)
        assert np.allclose(back.phi_coeffs, f.phi_coeffs)


class TestLaurentJson:
    def test_roundtrip(self):
        from conformal_hodge import serialization as ser

        f = LaurentField({(-2, 1): 1 + 2j, (0, -1): -0.5}, r_in=0.4)
        back = ser.laurent_from_json(json.loads(ser.dumps(ser.laurent_to_json(f))))
        assert back == f and back.band_limit == f.band_limit


class TestMapJson:
    def test_roundtrip_revalidates(self):
        from conformal_hodge import serialization as ser
        from conformal_hodge.mapping import ConformalMap
        from conformal_hodge.series import HolomorphicSeries

        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
        back = ser.map_from_json(ser.map_to_json(m))
        assert back.phi == m.phi
        assert back.min_deriv == pytest.approx(m.min_deriv)


class TestCatalog:
    def test_table_matches_examples(self):
        disk = hodge_catalog("disk")
        assert str(disk["A4"]) == "zero"
        assert str(disk["A6"]) == "infinite"
        annulus = hodge_catalog("annulus")
        assert str(annulus["A4"]) == "finite(1)"
        assert str(annulus["A5"]) == "finite(1)"
        assert str(annulus["A3"]) == "zero"
        torus = hodge_catalog("torus")
        assert str(torus["A3"]) == "finite(2)"
        assert str(torus["A6"]) == "zero"
        sphere = hodge_catalog("sphere")
        assert all(str(sphere[k]) == "zero" for k in ("A3", "A4", "A5", "A6"))
        assert all(
            str(hodge_catalog(d)["A1"]) == "infinite"
            for d in ("disk", "annulus", "torus", "sphere")
        )

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            hodge_catalog("mobius")
