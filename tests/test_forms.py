"""Flat 1-form calculus, the reflected flat/sharp maps, and membership labels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import disk, forms, series as s
from conformal_hodge.annulus import LaurentField, laurent_monomial
from conformal_hodge.disk import conformal_split, grad_bar, poisson_disk, sgrad_bar
from conformal_hodge.forms import (
    OneForm,
    TwoForm,
    ZeroForm,
    boundary_traces,
    codifferential,
    exterior_derivative,
    flat_map,
    form_inner,
    hodge_membership,
    sharp_map,
    star,
)
from conformal_hodge.serialization import field_from_json
from conformal_hodge.series import BivariateField, monomial

import oracles

R_IN = 0.5


def x_field():
    return BivariateField({(1, 0): 0.5, (0, 1): 0.5})


def y_field():
    return BivariateField({(1, 0): -0.5j, (0, 1): 0.5j})


class TestFlatSharp:
    def test_examples(self):
        dx = flat_map(monomial(0, 0, 1.0))
        assert dx.u_dx == monomial(0, 0) and not dx.v_dy
        neg_dy = flat_map(monomial(0, 0, 1j))
        assert not neg_dy.u_dx and neg_dy.v_dy == monomial(0, 0, -1.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(71)
        f = s.random_field(rng, 5)
        back = sharp_map(flat_map(f))
        assert s.coefficient_norm(s.subtract(back, f)) < 1e-14

    def test_isometry(self):
        rng = np.random.default_rng(72)
        f, g = s.random_field(rng, 4), s.random_field(rng, 4)
        lhs = s.inner_product(f, g).real
        rhs = form_inner(flat_map(f), flat_map(g))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


class TestCalculus:
    def test_star_orientation(self):
        dx = OneForm(monomial(0, 0), s.zero_field())
        sdx = star(dx)
        assert not sdx.u_dx and sdx.v_dy == monomial(0, 0)  # star dx = dy
        dy = OneForm(s.zero_field(), monomial(0, 0))
        sdy = star(dy)
        assert sdy.u_dx == monomial(0, 0, -1.0)  # star dy = -dx

    def test_star_squared_is_minus_identity(self):
        rng = np.random.default_rng(73)
        alpha = flat_map(s.random_field(rng, 5))
        ss = star(star(alpha))
        assert s.coefficient_norm(s.subtract(ss.u_dx, s.scale(alpha.u_dx, -1))) == 0
        assert s.coefficient_norm(s.subtract(ss.v_dy, s.scale(alpha.v_dy, -1))) == 0

    def test_d_of_x_dy(self):
        two = exterior_derivative(OneForm(s.zero_field(), x_field()))
        assert two.density == monomial(0, 0)

    def test_delta_of_reflected_zbar(self):
        out = codifferential(flat_map(monomial(0, 1)))
        assert out.value == monomial(0, 0, 2.0)

    def test_form_degrees_and_type_checks(self):
        F = ZeroForm(x_field())
        assert isinstance(exterior_derivative(F), OneForm)
        assert isinstance(star(F), TwoForm)
        alpha = flat_map(monomial(1, 0))
        assert isinstance(codifferential(alpha), ZeroForm)
        assert isinstance(star(TwoForm(x_field())), ZeroForm)
        with pytest.raises(ValueError):
            exterior_derivative(TwoForm(x_field()))
        with pytest.raises(ValueError):
            codifferential(F)
        for op in (star, exterior_derivative, codifferential):
            with pytest.raises(TypeError):
                op(x_field())

    def test_conformal_iff_harmonic(self):
        rng = np.random.default_rng(74)
        for _ in range(6):
            h = oracles.random_series(rng, 8)
            alpha = flat_map(h.to_field())
            assert not exterior_derivative(alpha).density
            assert not codifferential(alpha).value

    def test_adjointness_with_boundary_term(self):
        # With the orientation pinned by delta(u dx - v dy) = u_x - v_y
        # (i.e. delta = +star d star on 1-forms), Stokes' theorem reads
        # <d gamma, beta> + <gamma, delta beta> = boundary integral of
        # gamma ^ star beta; the co-differential is the adjoint of d up to
        # that boundary term and a sign tied to this convention.
        rng = np.random.default_rng(75)
        for _ in range(4):
            gamma = s.random_field(rng, 4, real=True)
            beta = flat_map(s.random_field(rng, 4))
            lhs = form_inner(exterior_derivative(ZeroForm(gamma)), beta)
            rhs = s.inner_product(gamma, codifferential(beta).value).real
            # boundary term: gamma * (tangential component of star beta) ds
            n_samp = 512
            theta = 2 * math.pi * np.arange(n_samp) / n_samp
            pts = np.exp(1j * theta)
            sb = star(beta)
            u = s.evaluate_grid(sb.u_dx, pts).real
            v = s.evaluate_grid(sb.v_dy, pts).real
            tang = u * (-np.sin(theta)) + v * np.cos(theta)
            gvals = s.evaluate_grid(gamma, pts).real
            boundary = float(np.sum(gvals * tang)) * (2 * math.pi / n_samp)
            assert abs(lhs + rhs - boundary) < 1e-8 * (1 + abs(lhs))

    def test_star_swaps_pole_directions_in_coefficients(self):
        lhs = star(flat_map(laurent_monomial(-1, 0, 1j, r_in=R_IN)))
        rhs = flat_map(laurent_monomial(-1, 0, 1.0, r_in=R_IN))
        assert lhs.u_dx == rhs.u_dx and lhs.v_dy == rhs.v_dy


class TestMembershipDisk:
    def test_gradient_of_dirichlet_potential_is_A1(self):
        F = BivariateField({(1, 1): 1.0, (0, 0): -1.0})
        f = sharp_map(exterior_derivative(ZeroForm(F)))
        rep = hodge_membership(f)
        assert rep.labels == ("A1",)
        assert rep.boundary_tangential_max < 1e-12  # exact forms with normal potential
        _, got_F, _, _, _, _, _ = conformal_split(f)
        assert s.coefficient_norm(s.subtract(got_F, F)) < 1e-12

    def test_split_that_leaves_zbar_terms_is_unresolved(self, monkeypatch):
        # a Poisson solve off by 0.1 z zbar, whose Laplacian is 0.4: the split
        # leaves zbar terms, and the labels it would give are not trusted
        solve = disk.poisson_disk
        monkeypatch.setattr(disk, "poisson_disk", lambda rhs: s.add(solve(rhs), monomial(1, 1, 0.1)))
        rep = hodge_membership(s.random_field(np.random.default_rng(3), 6))
        assert "unresolved" in rep.inconclusive

    def test_flat_holomorphic_is_A6(self):
        rep = hodge_membership(monomial(1, 0))
        assert rep.labels == ("A6",)
        assert rep.closedness_defect == 0
        assert rep.coclosedness_defect == 0

    def test_skew_gradient_is_A2(self):
        G = poisson_disk(monomial(0, 0, 2.0))
        rep = hodge_membership(sgrad_bar(G))
        assert rep.labels == ("A2",)

    def test_mixture_labels(self):
        f = s.add(monomial(0, 1), monomial(2, 0))  # gradient part + conformal part
        rep = hodge_membership(f)
        assert "A6" in rep.labels and "A1" in rep.labels
        assert rep.norms["A4"] == 0.0

    def test_inconclusive_band_reported(self):
        f = s.add(monomial(0, 1), monomial(2, 0, 1e-10))
        rep = hodge_membership(f, tol=1e-10)
        assert "A6" in rep.inconclusive
        assert "A6" not in rep.labels


class TestMembershipAnnulus:
    def test_log_differential_is_A4(self):
        rep = hodge_membership(laurent_monomial(-1, 0, 2.0, r_in=R_IN))  # d ln(x^2+y^2)
        assert rep.labels == ("A4",)
        assert rep.coordinates["A4"] == pytest.approx(2.0)
        assert rep.coordinates["A5"] == pytest.approx(0.0)
        assert rep.boundary_tangential_max < 1e-12  # normal harmonic field

    def test_star_log_differential_is_A5(self):
        alpha = star(flat_map(laurent_monomial(-1, 0, 2.0, r_in=R_IN)))
        rep = hodge_membership(sharp_map(alpha))
        assert rep.labels == ("A5",)
        assert rep.boundary_normal_max < 1e-12  # tangential harmonic field

    def test_mixed_field_resolves_components(self):
        f = LaurentField({(-1, 0): 3j, (1, 1): 2.0, (2, 0): 1.0}, r_in=R_IN)
        rep = hodge_membership(f)
        assert set(rep.labels) >= {"A5", "A6"}
        assert rep.norms["A1"] > 0 and rep.norms["A2"] > 0
        assert rep.coordinates["A5"] == pytest.approx(3.0)

    def test_nan_inner_trace_reaches_the_report(self, monkeypatch):
        # Python's max kept the outer circle's value over the inner circle's NaN
        clean = forms.boundary_traces
        monkeypatch.setattr(forms, "boundary_traces", lambda f, radius: (
            clean(f, radius) if radius == 1.0 else (math.nan, math.nan)))
        rep = hodge_membership(laurent_monomial(-1, 0, 2.0, r_in=R_IN))
        assert math.isnan(rep.boundary_tangential_max) and math.isnan(rep.boundary_normal_max)


class TestBoundaryTraces:
    def test_radial_form_has_no_tangential_trace(self):
        # (x dx + y dy) restricted to the circle: purely normal
        alpha = OneForm(x_field(), y_field())
        tang, norm_c = boundary_traces(sharp_map(alpha), radius=1.0)
        assert tang < 1e-14
        assert norm_c == pytest.approx(1.0)

    def test_angular_form_has_no_normal_trace(self):
        # x dy - y dx: purely tangential on circles
        alpha = OneForm(s.scale(y_field(), -1), x_field())
        tang, norm_c = boundary_traces(sharp_map(alpha), radius=0.7)
        assert norm_c < 1e-14
        assert tang == pytest.approx(0.7)

    def test_high_angular_mode_is_not_aliased_away(self):
        # f n = sin(128 theta) on the unit circle, zero at each of 256 equispaced
        # samples; 4 K samples, K = 130 the larger side of the table, bound the
        # maximum 1 by the sampled one over 1 - pi/4
        f = field_from_json({"max_degree": 129, "terms": [
            {"m": 128, "n": 1, "re": 0.0, "im": -0.5}, {"m": 0, "n": 129, "re": 0.0, "im": 0.5}]})
        assert hodge_membership(f).boundary_normal_max >= 1 - math.pi / 4
        assert s.boundary_max(f) >= 1 - math.pi / 4


# -- the field route against the 1-form route ------------------------------------

REL_TOL = 1e-12
# a relative bound underflows for subnormal coefficients, where both routes
# may differ by a few subnormal steps
FLOOR = 64 * np.finfo(float).smallest_subnormal
coefficient = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def disk_or_laurent_fields(draw):
    """A disk field of degree <= 8, or a Laurent field of band <= 4 with r_in in [0.2, 0.8]."""
    if draw(st.booleans()):
        degree = draw(st.integers(0, 8))
        slots = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
        chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
        return BivariateField({idx: draw(coefficient) for idx in chosen}, max_degree=8)
    band = draw(st.integers(0, 4))
    r_in = draw(st.floats(0.2, 0.8))
    slots = [(m, n) for m in range(-band, band + 1) for n in range(-band, band + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    return LaurentField({idx: draw(coefficient) for idx in chosen}, r_in=r_in, band_limit=band)


def _scales(f):
    """Bounds on the size of each reported quantity, from |c_mn| alone.

    Norms and coordinates: the triangle bound on the norm of f.  Traces: the
    largest sum of |c_mn| r^(m+n) over the boundary circles.  Defects: the
    coefficient norms of 2 d_z f and 2 d_zbar f, which the form route adds.
    """
    terms = [(m, n, abs(c)) for (m, n), c in f.items()]
    unit = (lambda m, n: laurent_monomial(m, n, 1.0, f.r_in)) if f.r_in else monomial
    size = sum(a * s.norm(unit(m, n)) for m, n, a in terms)
    radii = (1.0, f.r_in) if f.r_in else (1.0,)
    trace = max(sum(a * r ** (m + n) for m, n, a in terms) for r in radii)
    derivative = 2 * sum(s.coefficient_norm(s.wirtinger(f, w)) for w in ("d_z", "d_zbar"))
    return size, trace, derivative


@given(disk_or_laurent_fields())
@example(grad_bar(BivariateField({(1, 1): 1.0, (0, 0): -1.0})))  # exact gradient
@example(sgrad_bar(poisson_disk(monomial(0, 0, 2.0))))  # skew gradient
@example(LaurentField({(-1, 0): 2.0 + 3.0j, (2, 0): 1.0}, r_in=R_IN))  # conformal: the a4/a5 branch
@settings(max_examples=150, deadline=None)
def test_field_route_matches_form_route(f):
    got = hodge_membership(f, tol=1e-10)
    ref = oracles.hodge_membership(flat_map(f), tol=1e-10)
    assert got.labels == ref.labels
    assert got.inconclusive == ref.inconclusive
    size, trace, derivative = _scales(f)
    assert got.norms.keys() == ref.norms.keys() and got.coordinates.keys() == ref.coordinates.keys()
    for k in ref.norms:
        assert abs(got.norms[k] - ref.norms[k]) <= REL_TOL * size + FLOOR, k
    for k in ref.coordinates:
        assert abs(got.coordinates[k] - ref.coordinates[k]) <= REL_TOL * size + FLOOR, k
    for k in ("boundary_tangential_max", "boundary_normal_max"):
        assert abs(getattr(got, k) - getattr(ref, k)) <= REL_TOL * trace + FLOOR, k
    for k in ("closedness_defect", "coclosedness_defect"):
        assert abs(getattr(got, k) - getattr(ref, k)) <= REL_TOL * derivative + FLOOR, k
