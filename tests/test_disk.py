"""Projection routes, adjoint, Poisson solve, and decompositions on the disk."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import disk, series as s
from conformal_hodge.disk import (
    NonvanishingCheckError,
    adjoint_dz_disk,
    conformal_decompose,
    grad_bar,
    helmholtz_decompose,
    poisson_disk,
    project_con_bergman,
    project_con_gram_oracle,
    project_con_rule,
    projection_property_check,
    sgrad_bar,
    symplectic_decompose,
)
from conformal_hodge.quadrature import boundary_points
from conformal_hodge.series import HolomorphicSeries, TruncationWarning, monomial

import oracles

PI = math.pi


def series_gap(a, b):
    return max(
        (abs(a.coefficient(k) - b.coefficient(k))
         for k in range(max(a.degree, b.degree) + 1)),
        default=0.0,
    )


class TestProjectionRule:
    def test_monomial_examples(self):
        assert project_con_rule(monomial(2, 1)) == HolomorphicSeries([0, 2 / 3])
        assert project_con_rule(monomial(1, 1)) == HolomorphicSeries([0.5])
        assert not project_con_rule(monomial(0, 1))

    def test_closed_form_all_monomials(self):
        for m in range(9):
            for n in range(9):
                got = project_con_rule(monomial(m, n, max_degree=m + n))
                if m >= n:
                    expect = HolomorphicSeries(
                        [0] * (m - n) + [(m - n + 1) / (m + 1)]
                    )
                else:
                    expect = HolomorphicSeries([])
                assert series_gap(got, expect) == 0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        f = s.random_field(rng, 6)
        once = project_con_rule(f)
        twice = project_con_rule(once.to_field())
        assert series_gap(once, twice) < 1e-14

    def test_self_adjoint(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f, g = s.random_field(rng, 6), s.random_field(rng, 6)
            lhs = s.inner_product(project_con_rule(f).to_field(), g).real
            rhs = s.inner_product(f, project_con_rule(g).to_field()).real
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestGramOracle:
    def test_single_coefficient_arithmetic(self):
        # coefficient on z for z^2 zbar equals (pi/3)/(pi/2) = 2/3
        got = project_con_gram_oracle(monomial(2, 1))
        assert got.coefficient(1) == pytest.approx(2 / 3)

    def test_identity_on_holomorphic(self):
        rng = np.random.default_rng(3)
        xi = oracles.random_series(rng, 6)
        assert series_gap(project_con_gram_oracle(xi.to_field()), xi) < 1e-14

    def test_zbar_projects_to_zero(self):
        assert not project_con_gram_oracle(monomial(0, 1))


class TestBergman:
    def test_quadrature_projection_examples(self):
        got = project_con_bergman(monomial(1, 1))
        assert abs(got.coefficient(0) - 0.5) < 1e-6
        got2 = project_con_bergman(monomial(0, 2))
        assert all(abs(c) < 1e-6 for c in got2.coeffs)

    def test_three_way_agreement(self):
        worst_exact, worst_quad = 0.0, 0.0
        for m in range(9):
            for n in range(9 - m):
                f = monomial(m, n)
                rule = project_con_rule(f)
                worst_exact = max(worst_exact, series_gap(rule, project_con_gram_oracle(f)))
                worst_quad = max(worst_quad, series_gap(rule, project_con_bergman(f)))
        assert worst_exact <= 1e-12
        assert worst_quad <= 1e-6

    def test_underresolved_quadrature_reported(self):
        from conformal_hodge.quadrature import QuadratureResolutionWarning, QuadratureSpec

        f = s.BivariateField({(8, 8): 1.0})
        with pytest.warns(QuadratureResolutionWarning):
            project_con_bergman(f, quadrature=QuadratureSpec(4, 8))


class TestAdjoint:
    def test_examples(self):
        assert adjoint_dz_disk(HolomorphicSeries([1.0])) == HolomorphicSeries([0, 2.0])
        for n in range(5):
            got = adjoint_dz_disk(HolomorphicSeries([0] * n + [1.0]))
            assert got == HolomorphicSeries([0] * (n + 1) + [n + 2])
        assert not adjoint_dz_disk(HolomorphicSeries([]))

    def test_adjoint_pairing_for_constant(self):
        # <<1, (z)_z>> = pi = <<2z, z>>
        lhs = s.inner_product(monomial(0, 0), monomial(0, 0))
        rhs = s.inner_product(monomial(1, 0, 2.0), monomial(1, 0))
        assert lhs == pytest.approx(PI)
        assert rhs == pytest.approx(PI)

    def test_identity_all_pairs(self):
        worst = 0.0
        for m in range(11):
            for n in range(11):
                xi, eta = monomial(m, 0), monomial(n, 0)
                lhs = s.inner_product(xi, s.wirtinger(eta, "d_z")).real
                rhs = s.inner_product(
                    adjoint_dz_disk(HolomorphicSeries.from_field(xi)).to_field(), eta
                ).real
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_truncation_overflow_warns(self):
        with pytest.warns(TruncationWarning, match="dropped coefficient mass") as record:
            out = adjoint_dz_disk(HolomorphicSeries([0, 0, 1.0]), max_degree=2)
        assert out.degree <= 2
        assert [w.filename for w in record] == [__file__]  # the caller's line, not the library's


class TestPoisson:
    def test_constant_rhs(self):
        F = poisson_disk(monomial(0, 0, 4.0))
        assert F == s.BivariateField({(1, 1): 1.0, (0, 0): -1.0})

    def test_zero_rhs(self):
        assert not poisson_disk(s.zero_field())

    def test_quartic_example_and_fd_oracle(self):
        F = poisson_disk(monomial(1, 1, 16.0))
        assert F == s.BivariateField({(2, 2): 1.0, (0, 0): -1.0})
        pts, vals = oracles.fd_poisson_disk_values({(1, 1): 16.0})
        ours = s.evaluate_grid(F, pts)
        assert np.max(np.abs(ours - vals)) < 1e-6

    def test_fd_oracle_mixed_modes(self):
        rhs_terms = {(2, 1): 1.5, (1, 2): 1.5, (0, 0): -2.0, (3, 0): 0.5, (0, 3): 0.5}
        F = poisson_disk(s.BivariateField(rhs_terms))
        pts, vals = oracles.fd_poisson_disk_values(rhs_terms)
        ours = s.evaluate_grid(F, pts)
        assert np.max(np.abs(ours - vals)) < 1e-5

    def test_laplacian_exact_and_boundary_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rhs = s.random_field(rng, 6, real=True)
            F = poisson_disk(rhs)
            assert s.coefficient_norm(s.subtract(s.laplacian(F), rhs)) < 1e-12
            trace = np.abs(s.evaluate_grid(F, boundary_points(256))).max()
            assert trace <= 1e-12 * max(s.coefficient_norm(F), 1.0)
            assert F.is_real(tol=1e-14 * max(s.coefficient_norm(F), 1.0))


@st.composite
def complex_disk_fields(draw):
    """Dense complex disk fields of total degree 0..8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return s.random_field(rng, draw(st.integers(0, 8)))


@given(complex_disk_fields())
@example(monomial(1, 0))  # z: a right-hand side with no real-valued counterpart
@settings(max_examples=60, deadline=None)
def test_poisson_disk_is_complex_linear(rhs):
    """P(r) solves Laplace(P) = r with P = 0 on the circle for complex r, is the sum of the
    solves of the real and imaginary parts, and commutes with conjugation."""
    P = poisson_disk(rhs)
    size = max(s.coefficient_norm(P), 1.0)
    assert s.coefficient_norm(s.subtract(s.laplacian(P), rhs)) <= 1e-12 * size
    assert s.boundary_max(P) <= 1e-12 * size
    parts = s.add(poisson_disk(s.real_part(rhs)), s.scale(poisson_disk(s.imag_part(rhs)), 1j))
    assert s.coefficient_norm(s.subtract(P, parts)) <= 1e-12 * s.coefficient_norm(P)
    assert poisson_disk(s.conjugate(rhs)) == s.conjugate(P)


class TestGradients:
    def test_examples(self):
        F = s.BivariateField({(1, 1): 1.0, (0, 0): -1.0})
        assert grad_bar(F) == monomial(0, 1, 2.0)
        assert sgrad_bar(F) == monomial(0, 1, 2j)
        assert not grad_bar(monomial(0, 0, 3.0))

    def test_sum_identity(self):
        # grad_bar F + sgrad_bar G = 2 d_z (F + iG)
        rng = np.random.default_rng(8)
        F = s.random_field(rng, 5, real=True)
        G = s.random_field(rng, 5, real=True)
        lhs = s.add(grad_bar(F), sgrad_bar(G))
        rhs = s.scale(s.wirtinger(s.add(F, s.scale(G, 1j)), "d_z"), 2)
        assert s.coefficient_norm(s.subtract(lhs, rhs)) < 1e-12


class TestConformalDecompose:
    def test_zbar(self):
        dec = conformal_decompose(monomial(0, 1))
        assert not dec.parts[0][1]
        assert dec.multipliers.F == s.BivariateField({(1, 1): 0.5, (0, 0): -0.5})
        assert not dec.multipliers.G
        assert s.boundary_max(dec.multipliers.F) < 1e-15
        assert s.coefficient_norm(
            s.subtract(grad_bar(dec.multipliers.F), monomial(0, 1))
        ) < 1e-15

    def test_holomorphic_passthrough(self):
        for m in range(5):
            dec = conformal_decompose(monomial(m, 0))
            assert dec.parts[0][1] == HolomorphicSeries([0] * m + [1.0]).to_field()
            assert not dec.multipliers.F and not dec.multipliers.G

    def test_zzbar(self):
        dec = conformal_decompose(monomial(1, 1))
        assert dec.parts[0][1] == HolomorphicSeries([0.5]).to_field()
        (_, h), (_, gF), (_, sG) = dec.parts
        recon = s.add(s.add(h, gF), sG)
        assert s.norm(s.subtract(recon, monomial(1, 1))) < 1e-12

    def test_random_fields_contract(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = s.random_field(rng, 8)
            dec = conformal_decompose(f)
            scale = max(s.norm(f), 1e-30)
            assert dec.residual_norm <= 1e-10 * scale
            assert dec.closed_form_defect <= 1e-10 * scale
            mp = dec.multipliers
            assert mp.boundary_trace_max() <= 1e-10 * max(
                s.coefficient_norm(mp.F), s.coefficient_norm(mp.G), 1e-30)
            parts = [p for _, p in dec.parts]
            for i in range(3):
                for j in range(i + 1, 3):
                    ip = abs(s.inner_product(parts[i], parts[j]).real)
                    ni, nj = s.norm(parts[i]), s.norm(parts[j])
                    if ni > 1e-14 and nj > 1e-14:
                        assert ip <= 1e-10 * ni * nj

    def test_one_poisson_solve_and_real_potentials(self, monkeypatch):
        # F and G are the parts of the one complex potential Phi = F + iG
        calls = []
        solve = disk.poisson_disk
        monkeypatch.setattr(disk, "poisson_disk", lambda rhs: calls.append(rhs) or solve(rhs))
        _, F, G, _, _, _, residue = disk.conformal_split(s.random_field(np.random.default_rng(4), 6))
        assert calls == [residue]
        for potential in (F, G):  # every coefficient equal, a zero's sign aside
            assert potential == s.real_part(potential)

    def test_orthogonality_matrix_is_exactly_symmetric(self):
        # Re <<p, q>> = Re <<q, p>>: the reported matrix must agree with that bit for bit
        rng = np.random.default_rng(11)
        for degree in (3, 8, 20):
            f = s.random_field(rng, degree)
            for dec in (conformal_decompose(f), helmholtz_decompose(f)):
                M = np.array(dec.orthogonality)
                assert M.tobytes() == M.T.copy().tobytes()


@pytest.mark.parametrize("split", [conformal_decompose, helmholtz_decompose,
                                   symplectic_decompose])
def test_reported_numbers_describe_the_returned_parts(split):
    # the Gram matrix is of the stored parts, and the conformal parts sum to f
    # within the reported residual
    f = s.random_field(np.random.default_rng(37), 7)
    dec = split(f)
    assert np.array(dec.orthogonality).tobytes() == (
        np.array(disk._orthogonality_matrix(dec.parts)).tobytes())
    if dec.kind == "conformal":
        (_, h), (_, gF), (_, sG) = dec.parts
        assert s.norm(s.subtract(f, s.add(s.add(h, gF), sG))) <= dec.residual_norm
    else:
        assert dec.closed_form_defect is None


class TestHelmholtz:
    def test_identity_field_is_pure_gradient(self):
        dec = helmholtz_decompose(monomial(1, 0))
        assert not dec.parts[0][1]
        assert dec.multipliers.F == s.BivariateField({(1, 1): 0.5, (0, 0): -0.5})

    def test_rotation_field_is_divergence_free(self):
        dec = helmholtz_decompose(monomial(1, 0, 1j))
        assert dec.parts[0][1] == monomial(1, 0, 1j)
        assert not dec.multipliers.F

    def test_zbar_divergence_free(self):
        dec = helmholtz_decompose(monomial(0, 1))
        assert dec.parts[0][1] == monomial(0, 1)

    def test_random_orthogonality_and_divfree(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            f = s.random_field(rng, 8)
            dec = helmholtz_decompose(f)
            (_, vol), (_, grad) = dec.parts
            div = s.real_part(s.div_curl(vol))
            assert s.coefficient_norm(div) <= 1e-12 * max(s.coefficient_norm(vol), 1)
            nv, ng = s.norm(vol), s.norm(grad)
            if nv > 1e-14 and ng > 1e-14:
                ip = abs(s.inner_product(vol, grad).real)
                assert ip <= 1e-10 * nv * ng
            assert dec.residual_norm == s.norm(div)  # the reported defect is the divergence
            assert dec.residual_norm <= 1e-12 * max(s.norm(f), 1)


class TestSymplectic:
    def test_rotation_field(self):
        dec = symplectic_decompose(monomial(1, 0, 1j))
        assert dec.parts[0][1] == monomial(1, 0, 1j)
        assert dec.kind == "symplectic"

    def test_identity_field(self):
        dec = symplectic_decompose(monomial(1, 0))
        assert not dec.parts[0][1]

    def test_zbar(self):
        dec = symplectic_decompose(monomial(0, 1))
        assert dec.parts[0][1] == monomial(0, 1)

    def test_wrong_potential_shows_in_the_residual(self, monkeypatch):
        # with F = 0 the "divergence-free" part of z = x + iy is z itself,
        # whose divergence 2 has L^2 norm 2 sqrt(pi) on the unit disk
        monkeypatch.setattr(disk, "poisson_disk", lambda rhs: s.zero_field())
        for split in (helmholtz_decompose, symplectic_decompose):
            assert split(monomial(1, 0)).residual_norm == pytest.approx(2 * math.sqrt(PI))

    def test_matches_helmholtz_parts(self):
        rng = np.random.default_rng(30)
        f = s.random_field(rng, 6)
        hh, sp = helmholtz_decompose(f), symplectic_decompose(f)
        assert hh.parts == sp.parts
        assert hh.multipliers.F == sp.multipliers.F


class TestProjectionProperty:
    def test_zbar_with_nonvanishing_weight(self):
        psi = HolomorphicSeries([1.0, 0.5])
        rep = projection_property_check(monomial(0, 1), psi, tol=1e-10)
        assert rep.norm_plain <= 1e-10 and rep.norm_weighted <= 1e-10
        assert rep.consistent

    def test_identity_weight_nonzero_projection(self):
        rep = projection_property_check(monomial(1, 0), HolomorphicSeries([1.0]), tol=1e-10)
        assert rep.norm_plain == pytest.approx(math.sqrt(PI / 2))
        assert rep.norm_weighted > 1e-10
        assert rep.consistent

    def test_zbar_squared_constant_weight(self):
        rep = projection_property_check(monomial(0, 2), HolomorphicSeries([2.0]), tol=1e-10)
        assert rep.norm_plain <= 1e-10 and rep.norm_weighted <= 1e-10
        assert rep.consistent

    def test_vanishing_psi_rejected(self):
        with pytest.raises(NonvanishingCheckError):
            projection_property_check(monomial(0, 1), HolomorphicSeries([0, 1.0]), tol=1e-8)

    def test_interior_zero_rejected(self):
        # psi = z - z0 vanishes between the nodes of the old 64 x 128 grid
        # scan, which reported min |psi| = 0.0145 and accepted it
        z0 = 31.5 / 63 * complex(math.cos(PI / 128), math.sin(PI / 128))
        with pytest.raises(NonvanishingCheckError, match="1 zero"):
            projection_property_check(monomial(0, 1), HolomorphicSeries([-z0, 1.0]), tol=1e-8)

    @pytest.mark.parametrize("radius, reason", [(0.9999, "1 zero"), (1 + 1e-7, "cannot certify")])
    def test_zero_near_the_circle_between_samples(self, radius, reason):
        # psi = z - z0 with z0 half a spacing from the nearest of the 128 samples: the
        # margin |psi(samples)| - pi/n is not positive at n = 128; a zero 1e-4 inside
        # shows at 256 samples, one 1e-7 outside is never certified nonvanishing
        z0 = radius * complex(math.cos(PI / 128), math.sin(PI / 128))
        with pytest.raises(NonvanishingCheckError, match=reason):
            projection_property_check(monomial(0, 1), HolomorphicSeries([-z0, 1.0]), tol=1e-8)

    def test_random_pairs_consistent(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            # nonvanishing by construction: 2 + small perturbation
            psi = HolomorphicSeries(
                [3.0] + list(0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            )
            if trial % 2 == 0:
                F = poisson_disk(s.random_field(rng, 4, real=True))
                G = poisson_disk(s.random_field(rng, 4, real=True))
                f = s.add(grad_bar(F), sgrad_bar(G))  # projection-free by construction
            else:
                f = s.random_field(rng, 5)
            rep = projection_property_check(f, psi, tol=1e-8)
            assert rep.consistent
