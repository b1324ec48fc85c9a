"""Coefficient-vector forms of the mapped operators against their
field-arithmetic routes in oracles.py.

The pulled-back frame phi' phi^k, the weighted projection and the geodesic
right-hand side are drawn on gentle maps: phi = a0 + a1 (z + sum b_k z^k)
with sum k |b_k| <= 0.3 keeps Re(phi' / a1) > 0, so phi is univalent and
phi^k stays independent up to max_degree.  The frame is compared to 1e-12
relative to its scale; the two projections share the Gram solve, so their
right-hand sides differ at roundoff times the Gram condition number.  Small
max_degree cuts the pulled-back products, so the truncation of both routes
is compared too.

The stationary matrix is drawn on univalent maps z + sum b_k z^k with
sum k |b_k| < 1 and compared to its column-by-column route: the matrix is
G^-1 K + c I, read off the cached Gram factor, and the route solves with
that factor once per column, so both carry Gram roundoff and above
condition 1e3 the bound grows with the condition number.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import series as s
from conformal_hodge.dynamics import (
    GeodesicState,
    PotentialSpec,
    geodesic_rhs,
    stationary_matrix,
)
from conformal_hodge.mapping import ConformalMap, project_con_mapped
from conformal_hodge.series import BivariateField, HolomorphicSeries

import oracles

REL_TOL = 1e-12

# a drawn map can take the Gram condition past the warning threshold, and the
# bounds above grow with that condition: the warning is expected here
pytestmark = pytest.mark.filterwarnings("ignore::conformal_hodge.mapping.GramConditionWarning")

unit = st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) > 1e-3)
coefficient = st.builds(complex, unit, unit)


@st.composite
def gentle_maps(draw):
    p = draw(st.integers(1, 4))  # deg phi
    b = np.array([draw(coefficient) for _ in range(2, p + 1)], dtype=complex)
    weight = np.abs(b) @ np.arange(2, p + 1)
    if weight > 0.3:
        b *= 0.3 / weight
    a0 = draw(coefficient)
    a1 = draw(st.floats(0.5, 2)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    return ConformalMap(HolomorphicSeries([a0, a1, *(a1 * b)]))


def gram_condition(mapping, degree, max_degree):
    w, _ = mapping.gram(degree, max_degree)
    return w[-1] / w[0]


@st.composite
def velocities(draw):
    """(max_degree, proj_degree, xi) with deg xi <= proj_degree <= max_degree.

    A projection degree above max_degree leaves the cut frame phi' phi^k
    linearly dependent, and the Gram matrix singular.
    """
    max_degree = draw(st.integers(4, 24))
    proj_degree = draw(st.integers(1, min(7, max_degree)))
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=proj_degree + 1))
    return max_degree, proj_degree, HolomorphicSeries(coeffs)


@given(gentle_maps(), st.integers(0, 6), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_basis_matrix_matches_shift_add(mapping, degree, max_degree):
    got = mapping.basis_matrix(degree, max_degree)
    ref = oracles.basis_matrix(mapping, degree, max_degree)
    assert got.shape == ref.shape
    scale = np.abs(mapping.phi_prime.coeffs).sum() * np.abs(ref).max(initial=0) + 1.0
    assert np.abs(got - ref).max(initial=0) <= REL_TOL * scale


@given(gentle_maps(), st.data(), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_projection_matches_field_product_route(mapping, data, degree):
    rows = data.draw(st.integers(1, 6))
    table = np.array([[data.draw(coefficient) for _ in range(rows - i)] + [0] * i
                      for i in range(rows)], dtype=complex)
    f = BivariateField(table, max_degree=rows - 1 + data.draw(st.integers(0, 2)))
    cap = max(mapping.natural_cap(degree), f.max_degree)
    got = project_con_mapped(mapping, f, degree, max_degree=cap).to_array(degree + 1)
    ref = oracles.project_con_mapped(mapping, f, degree, cap).to_array(degree + 1)
    scale = max(np.linalg.norm(ref), s.coefficient_norm(f))
    assert np.linalg.norm(got - ref) <= REL_TOL * gram_condition(mapping, degree, cap) * scale


@given(gentle_maps(), velocities())
@example(  # the degree-4 cut drops most of each pulled-back product
    ConformalMap(HolomorphicSeries([0.1j, 1.0, 0.05, 0.02j, -0.01])),
    (4, 4, HolomorphicSeries([0.3, -0.2j, 0.5, 0.1, 0.4j])),
)
@settings(max_examples=60, deadline=None)
def test_geodesic_rhs_matches_field_product_route(mapping, velocity):
    max_degree, proj_degree, xi = velocity
    phi_dot, xi_dot = geodesic_rhs(GeodesicState(mapping, xi), proj_degree, max_degree)
    ref_phi_dot, ref_xi_dot = oracles.geodesic_rhs(mapping, xi, proj_degree, max_degree)
    assert phi_dot == ref_phi_dot
    got, ref = xi_dot.to_array(proj_degree + 1), ref_xi_dot.to_array(proj_degree + 1)
    # xi_dot is quadratic in xi
    scale = np.linalg.norm(ref) + np.linalg.norm(xi.coeffs) ** 2
    assert np.linalg.norm(got - ref) <= REL_TOL * gram_condition(mapping, proj_degree, max_degree) * scale


@st.composite
def univalent_maps(draw):
    """phi = z + sum b_k z^k of degree 1..4 with sum k |b_k| < 1, so Re phi' > 0."""
    p = draw(st.integers(1, 4))
    b = np.array([draw(coefficient) for _ in range(2, p + 1)], dtype=complex)
    weight = np.abs(b) @ np.arange(2, p + 1)
    if weight > 0:
        b *= draw(st.floats(0, 0.99)) / weight
    return ConformalMap(HolomorphicSeries([0, 1, *b]))


@given(univalent_maps(), st.integers(2, 20), st.floats(-3, 1))
@settings(max_examples=60, deadline=None)
def test_stationary_matrix_matches_column_route(mapping, n, c):
    V = PotentialSpec.quadratic(c)
    ref = oracles.stationary_matrix(V, mapping, n)
    got = stationary_matrix(V, mapping, n)
    cond = gram_condition(mapping, n, mapping.natural_cap(n))
    assert np.linalg.norm(got - ref) <= REL_TOL * max(1.0, cond / 1e3) * np.linalg.norm(ref)
