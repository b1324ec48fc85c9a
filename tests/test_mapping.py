"""Conformal map validation, weighted inner products, mapped projection/adjoint."""

import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import mapping
from conformal_hodge import serialization as ser
from conformal_hodge import series as s
from conformal_hodge.cli import main
from conformal_hodge.disk import project_con_gram_oracle
from conformal_hodge.mapping import (
    ConformalMap,
    EmbeddingError,
    GramConditionWarning,
    _solve_gram,
    adjoint_dz_mapped,
    map_inner_product,
    project_con_mapped,
)
from conformal_hodge.series import BivariateField, HolomorphicSeries, monomial

import oracles

PI = math.pi

coefficient = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def gentle_map():
    return ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))


def exp_series(a, scale=1.0, degree=24):
    """scale * (e^{az} - 1) truncated at degree."""
    return HolomorphicSeries([0.0] + [scale * a**k / math.factorial(k) for k in range(1, degree + 1)])


def critical_point_map(z0, c=0.0):
    """phi with phi' = (z - z0)(1 + c z) and phi(0) = 0."""
    return HolomorphicSeries([0.0, -z0, (1 - c * z0) / 2, c / 3])


# phi' = z - Z0 vanishes 1e-4 inside the circle, half a spacing from the nearest
# of the 128 samples; the sampled tests alone accepted phi (min_deriv 0.0245)
Z0 = 0.9999 * cmath.exp(1j * PI / 128)


class TestConformalMapValidation:
    def test_identity_passes(self):
        m = ConformalMap.identity()
        assert m.min_deriv == pytest.approx(1.0)

    def test_gentle_map_min_deriv(self):
        m = gentle_map()
        # |phi'| = |1 + 0.2 z| is minimised on the boundary at z = -1
        assert m.min_deriv == pytest.approx(0.8, abs=1e-12)

    def test_vanishing_derivative_rejected(self):
        with pytest.raises(EmbeddingError):
            ConformalMap(HolomorphicSeries([0.0, 0.0, 1.0]))  # z^2, phi'(0) = 0

    def test_interior_critical_point_rejected(self):
        # phi = z - z^3 has phi' = 1 - 3z^2 vanishing inside the disk
        with pytest.raises(EmbeddingError):
            ConformalMap(HolomorphicSeries([0.0, 1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("phi, reason", [
        # min |phi'| = 0.073; the boundary crosses itself near phi(+-i pi/4)
        (exp_series(4.0), "cross or touch"),
        # min |phi'| = 0.037; the boundary crosses itself
        (exp_series(3.3, 1 / 3.3), "cross or touch"),
        # phi' = 1 + z vanishes at the boundary point -1
        (HolomorphicSeries([0.0, 1.0, 0.5]), "vanishes"),
        # phi' = 1 + 1.02 z^2 vanishes at +-i / sqrt(1.02), |z| = 0.99
        (HolomorphicSeries([0.0, 1.0, 0.0, 0.34]), "2 zero"),
        (HolomorphicSeries([0.0, 1.0, math.nan]), "not finite"),
        # the zero shows in the winding number once the samples double to 256
        (critical_point_map(Z0), "1 zero"),
    ], ids=["exp4z", "exp3.3z", "cusp", "two-critical-points", "nan",
            "critical-point-between-samples"])
    def test_non_embeddings_rejected(self, phi, reason):
        with pytest.raises(EmbeddingError, match=reason):
            ConformalMap(phi)

    @pytest.mark.parametrize("coeffs, min_deriv", [
        ([0.0, 1.0, 0.499], 0.002),  # univalent, with a near-cusp at -1
        ([0.0, 2.0], 2.0),
        ([0.0, 1.0], 1.0),
    ])
    def test_embeddings_accepted(self, coeffs, min_deriv):
        m = ConformalMap(HolomorphicSeries(coeffs))
        assert m.min_deriv == pytest.approx(min_deriv, abs=1e-12)
        assert m.check_boundary_injectivity()

    def test_min_deriv_is_zero_with_interior_zeros(self):
        # the boundary minimum 0.02 is not the minimum over the disk
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.0, 0.34]), validate=False)
        assert m.min_deriv == 0.0

    def test_boundary_injectivity_check(self):
        # the doubling map traces the circle twice, so its boundary polygon
        # overlaps itself; bypass construction-time validation to exercise the check
        m = ConformalMap(HolomorphicSeries([0.0, 0.0, 1.0]), validate=False)
        with pytest.raises(EmbeddingError):
            m.check_boundary_injectivity()
        gentle_map().check_boundary_injectivity()

    @given(st.floats(1e-6, 1e-2), st.integers(0, 127), st.floats(0.01, 0.99),
           st.floats(0, 0.5), st.floats(-PI, PI))
    @example(1e-4, 0, 0.5, 0.0, 0.0)  # Z0
    @example(1e-6, 77, 0.5, 0.5, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_zero_between_samples_is_rejected(self, eps, j, t, c_abs, c_arg):
        # a zero of phi' at radius 1 - eps, strictly between samples j and j + 1
        z0 = (1 - eps) * cmath.exp(2j * PI * (j + t) / 128)
        phi = critical_point_map(z0, c_abs * cmath.exp(1j * c_arg))
        assert ConformalMap(phi, validate=False).min_deriv == 0.0
        with pytest.raises(EmbeddingError, match="zero|cannot certify"):
            ConformalMap(phi)

    def test_zero_just_outside_cannot_be_certified(self):
        # phi' = z - z0 with |z0| = 1 + 1e-7 has no zero in the closed disk (phi is
        # even univalent), but no sampling margin at up to 32768 samples shows it
        m = ConformalMap(critical_point_map((1 + 1e-7) * Z0 / abs(Z0)), validate=False)
        assert m.min_deriv == 0.0
        assert "at 32768 samples: cannot certify" in m.deriv_failure
        with pytest.raises(EmbeddingError, match="cannot certify"):
            ConformalMap(m.phi)

    @given(st.floats(0, 0.1), st.floats(-PI, PI), st.floats(0, 0.03), st.floats(-PI, PI))
    @example(0.1, PI, 0.03, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_certified_maps_pass_the_polygon_test(self, a_abs, a_arg, b_abs, b_arg):
        phi = HolomorphicSeries([0.0, 1.0, a_abs * cmath.exp(1j * a_arg),
                                 b_abs * cmath.exp(1j * b_arg)])
        m = ConformalMap(phi)
        # Re phi' >= 1 - 2|a| - 3|b| on the disk: every such map certifies
        assert m._univalence_margin() > 0
        assert m._polygon_crossing() is None

    @pytest.mark.parametrize("phi, reason", [
        (HolomorphicSeries([0.0, 0.0, 1.0]), "cross or touch"),  # phi'(0) = 0
        (HolomorphicSeries([0.0, 1.0, 0.499]), None),
        (exp_series(4.0), "cross or touch"),
        (exp_series(3.3, 1 / 3.3), "cross or touch"),
    ], ids=["z^2", "near-cusp", "exp4z", "exp3.3z"])
    def test_maps_without_the_certificate_take_the_polygon_path(self, phi, reason):
        m = ConformalMap(phi, validate=False)
        assert not m._univalence_margin() > 0
        if reason:
            with pytest.raises(EmbeddingError, match=reason):
                m.check_boundary_injectivity()
        else:
            assert m.check_boundary_injectivity() and m._polygon_crossing() is None


class TestCertificateCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Record (evaluated object, sample count) of every series.evaluate_grid call
        and the sample count of every mapping._boundary_samples call."""
        log = {"grid": [], "boundary": []}
        grid, boundary = s.evaluate_grid, mapping._boundary_samples

        def counted_grid(f, points):
            log["grid"].append((f, np.size(points)))
            return grid(f, points)

        def counted_boundary(n):
            log["boundary"].append(n)
            return boundary(n)

        monkeypatch.setattr(s, "evaluate_grid", counted_grid)
        monkeypatch.setattr(mapping, "_boundary_samples", counted_boundary)
        return log

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0, 0.1], [0.0, 1.0, 0.05 - 0.1j, 0.03j]])
    def test_certifiable_map_evaluates_phi_prime_once(self, calls, coeffs):
        m = ConformalMap(HolomorphicSeries(coeffs))
        assert calls["grid"] == [(m.phi_prime, 128)]
        assert m._univalence_margin() > 0
        assert calls["boundary"] and set(calls["boundary"]) == {128}

    def test_near_cusp_doubles_the_samples_but_not_the_polygon_ones(self, calls):
        # phi' = 1 + 0.998 z: the sampling margin 0.002 - 0.998 pi / n first turns
        # positive at n = 2048; the polygon test stays at the base 128 samples
        phi = HolomorphicSeries([0.0, 1.0, 0.499])
        b = phi.derivative().coeffs
        assert 0.002 - s.sampling_slack(b, 1024) < 0 < 0.002 - s.sampling_slack(b, 2048)
        m = ConformalMap(phi)
        assert m.min_deriv == pytest.approx(0.002, abs=1e-12)
        assert [n for f, n in calls["grid"]] == [128, 256, 512, 1024, 2048, 128]
        assert calls["grid"][-1][0] == phi.to_field()
        assert set(calls["boundary"]) == {128}


class TestComposeWith:
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_default_cap_is_the_natural_cap(self, degree, seed):
        rng = np.random.default_rng(seed)
        m = ConformalMap(oracles.random_series(rng, 3), validate=False)
        xi = oracles.random_series(rng, degree)
        got, ref = m.compose_with(xi), m.compose_with(xi, m.natural_cap(xi.degree))
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    def test_accepts_a_number(self):
        m = gentle_map()
        assert m.compose_with(1.5).coeffs.tolist() == [1.5]


class TestMapInnerProduct:
    def test_identity_reduces_to_disk(self):
        rng = np.random.default_rng(4)
        f, g = s.random_field(rng, 4), s.random_field(rng, 4)
        a = map_inner_product(ConformalMap.identity(), f, g)
        b = s.inner_product(f, g)
        assert abs(a - b) < 1e-12 * (1 + abs(b))

    def test_scaled_disk_area(self):
        m = ConformalMap(HolomorphicSeries([0.0, 2.0]))
        v = map_inner_product(m, monomial(0, 0), monomial(0, 0)).real
        assert v == pytest.approx(4 * PI)

    def test_gentle_map_vs_quadrature(self):
        m = gentle_map()
        got = map_inner_product(m, monomial(0, 0), monomial(0, 0)).real
        # oracle: integral of |phi'|^2 over the disk
        z, w = oracles.polar_quad_nodes(64, 256)
        dphi = oracles.eval_terms({(0, 0): 1.0, (1, 0): 0.2}, z)
        oracle = float(np.sum(np.abs(dphi) ** 2 * w))
        assert abs(got - oracle) < 1e-8

    def test_general_fields_vs_quadrature(self):
        rng = np.random.default_rng(6)
        m = gentle_map()
        f, g = s.random_field(rng, 3), s.random_field(rng, 3)
        got = map_inner_product(m, f, g)
        z, w = oracles.polar_quad_nodes(64, 256)
        dphi = oracles.eval_terms({(0, 0): 1.0, (1, 0): 0.2}, z)
        fv = oracles.eval_terms(f.terms(), z) * dphi
        gv = oracles.eval_terms(g.terms(), z) * dphi
        oracle = complex(np.sum(fv * np.conj(gv) * w))
        assert abs(got - oracle) < 1e-8 * (1 + abs(oracle))


    @given(st.integers(0, 4), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_same_field_in_both_slots_matches_a_copy(self, degree, seed, as_series):
        # the pairing of f with itself forms phi' f once; the value is the same bits
        rng = np.random.default_rng(seed)
        m = ConformalMap(oracles.random_series(rng, 3), validate=False)
        f = oracles.random_series(rng, degree) if as_series else s.random_field(rng, degree)
        copy = (HolomorphicSeries(f.coeffs.copy()) if as_series
                else BivariateField(f.table.copy(), f.max_degree))
        assert copy is not f
        same, other = map_inner_product(m, f, f), map_inner_product(m, f, copy)
        assert same == other and math.copysign(1, same.imag) == math.copysign(1, other.imag)


class TestMappedProjection:
    def test_identity_equals_gram_oracle(self):
        rng = np.random.default_rng(15)
        f = s.random_field(rng, 4)
        a = project_con_mapped(ConformalMap.identity(), f, degree=4)
        b = project_con_gram_oracle(f)  # degree f.max_degree = 4
        assert max(abs(a.coefficient(k) - b.coefficient(k)) for k in range(5)) < 1e-10

    def test_zero_field_projects_to_zero(self):
        # phi' f has rows but no columns: its angular sums have no modes
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.2]))
        assert project_con_mapped(m, s.zero_field(), degree=4) == HolomorphicSeries()

    def test_scaled_disk_radial_projection(self):
        # pullback of zeta zetabar through phi = 2z is 4 z zbar; projection
        # on the radius-2 disk is the constant R^2/2 = 2
        m = ConformalMap(HolomorphicSeries([0.0, 2.0]))
        got = project_con_mapped(m, monomial(1, 1, 4.0), degree=3)
        assert abs(got.coefficient(0) - 2.0) < 1e-12
        assert all(abs(got.coefficient(k)) < 1e-12 for k in range(1, 4))

    def test_fixes_holomorphic_pullbacks(self):
        m = gentle_map()
        rng = np.random.default_rng(16)
        g = oracles.random_series(rng, 3)
        f = m.compose_with(g, max_degree=12).to_field()
        got = project_con_mapped(m, f, degree=3)
        assert max(abs(got.coefficient(k) - g.coefficient(k)) for k in range(4)) < 1e-9

    def test_residual_orthogonality(self):
        m = gentle_map()
        rng = np.random.default_rng(18)
        f = s.random_field(rng, 4)
        degree = 5
        proj = project_con_mapped(m, f, degree=degree)
        recon = m.compose_with(proj, max_degree=16).to_field()
        resid = s.subtract(f, recon)
        for j in range(degree + 1):
            basis_pull = HolomorphicSeries(m.phi.power_table(j, 16)[j]).to_field()
            val = map_inner_product(m, resid, basis_pull)
            assert abs(val) < 1e-9 * max(s.norm(f), 1)

    # z + 0.499z^2 at degree 30, cap 34: the Gram eigenvalue ratio is about
    # 1e16 even after column scaling (2z's Gram matrix scales to the identity)
    def test_illconditioned_gram_reported(self):
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.499]))
        with pytest.warns(GramConditionWarning) as record:
            project_con_mapped(m, monomial(1, 1), degree=30, max_degree=34)
        assert [w.filename for w in record] == [__file__]  # the caller's line, not the library's

    def test_condition_warned_once_per_factorisation(self):
        # the projection and the adjoint share the cached Gram of one map
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.499]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project_con_mapped(m, monomial(1, 1), degree=30, max_degree=34)
            project_con_mapped(m, monomial(2, 1), degree=30, max_degree=34)
            adjoint_dz_mapped(m, HolomorphicSeries([0.0, 1.0]), degree=30, max_degree=34)
            assert len(caught) == 1 and caught[0].category is GramConditionWarning
            project_con_mapped(ConformalMap(HolomorphicSeries([0.0, 1.0, 0.499])), monomial(1, 1),
                               degree=30, max_degree=34)
        assert len(caught) == 2

    def test_gram_overflow_raises(self):
        # phi' phi^3 = 1e240 z^3 is finite; its squared norm in the Gram matrix is not
        m = ConformalMap(HolomorphicSeries([0.0, 1e60]), validate=False)
        assert np.isfinite(m.basis_matrix(3, 3)).all()
        with pytest.raises(FloatingPointError, match="not finite"), np.errstate(all="ignore"):
            m.gram(3, 3)

    @pytest.mark.parametrize("degree", [4, 8, 17])
    def test_gram_solve_matches_explicit_solve(self, degree):
        # random gentle map: sum k |a_k| = 0.3 < 1 keeps Re phi' > 0 (univalent)
        rng = np.random.default_rng(100 + degree)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, *(0.1 * c / (np.arange(2, 5) * abs(c)))]))
        cap = m.natural_cap(degree)
        basis = [HolomorphicSeries(row).to_field() for row in m.basis_matrix(degree, cap)]
        G = np.array([[s.inner_product(bk, bj) for bk in basis] for bj in basis])
        rhs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        ref = np.linalg.solve(G, rhs)
        got = _solve_gram(m, rhs, degree, cap)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.cond(G) * np.linalg.norm(ref)


class TestSharedPowerTable:
    def test_operators_share_one_table_per_cap(self):
        m = gentle_map()
        rng = np.random.default_rng(31)
        xi, f = oracles.random_series(rng, 3), s.random_field(rng, 4)
        degree, cap = 5, 16

        def run_operators():
            m.compose_with(xi, cap)
            adjoint_dz_mapped(m, xi, degree=degree, max_degree=cap)
            project_con_mapped(m, f, degree=degree, max_degree=cap)

        run_operators()
        table = m.phi.power_table(degree, cap)
        run_operators()
        again = m.phi.power_table(degree, cap)
        assert again.base is table.base  # not rebuilt by the second round
        assert not again.flags.writeable
        keys = [k if isinstance(k, tuple) else (k,) for k in m._caches]
        assert not any("powers" in key for key in keys)
        assert not any("phi_prime" in key for key in keys)  # the Toeplitz matrix is gathered per call


class TestSharedMapState:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """The matrices passed to np.linalg.eigh, which factors each Gram matrix."""
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda G: calls.append(G) or eigh(G))
        return calls

    def test_equal_coefficient_bytes_share_the_gram_factor(self, eigh_calls):
        a, b = gentle_map(), gentle_map()
        assert b is not a and b.phi is a.phi
        first = a.gram(6, 12)
        assert b.gram(6, 12) is first
        assert len(eigh_calls) == 1

    def test_a_signed_zero_does_not_share(self, eigh_calls):
        a = gentle_map()
        b = ConformalMap(HolomorphicSeries([-0.0, 1.0, 0.1]))
        assert a.phi == b.phi and b.phi is not a.phi
        assert all(np.array_equal(x, y) for x, y in zip(a.gram(6, 12), b.gram(6, 12)))
        assert len(eigh_calls) == 2

    def test_store_holds_at_most_its_bound(self):
        bound = mapping._certified.cache_info().maxsize
        maps = [ConformalMap(HolomorphicSeries([0.0, 1.0, 0.01 * k])) for k in range(1, bound + 2)]
        assert mapping._certified.cache_info().currsize == bound
        assert ConformalMap(maps[0].phi).phi is not maps[0].phi  # the oldest is rebuilt
        assert ConformalMap(maps[-1].phi).phi is maps[-1].phi

    def test_uncertifiable_map_raises_on_every_construction(self, tmp_path):
        # phi = -z0 z + z^2/2, with a critical point between two certificate samples
        z0 = 0.9999 * complex(math.cos(math.pi / 128), math.sin(math.pi / 128))
        for _ in range(2):
            with pytest.raises(EmbeddingError, match="phi' has 1 zero"):
                ConformalMap(HolomorphicSeries([0.0, -z0, 0.5]))
        mp = tmp_path / "map.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [-z0.real, -z0.imag], [0.5, 0.0]]})
        for _ in range(2):
            assert main(["stationary", "--map", str(mp), "--c", "0", "--init", "z"]) == 3
        assert mapping._certified.cache_info().currsize == 0

    def test_runs_on_a_shared_map_write_the_bytes_of_a_fresh_one(self, tmp_path):
        mp = tmp_path / "map.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.05, -0.03], [0.0, 0.01]]})

        def run(name):
            out = tmp_path / name
            assert main(["stationary", "--map", str(mp), "--c", "-1.5",
                         "--init", "0.2+0.1*z-0.05j*z^2", "--out", str(out)]) == 0
            return out.read_bytes()

        first, second = run("first.json"), run("second.json")
        assert mapping._certified.cache_info().hits >= 1
        mapping._certified.cache_clear()
        assert first == second == run("fresh.json")


class TestMappedAdjoint:
    def test_identity_reduces_to_disk_formula(self):
        rng = np.random.default_rng(19)
        xi = oracles.random_series(rng, 4)
        got = adjoint_dz_mapped(ConformalMap.identity(), xi, degree=xi.degree + 1)
        expect = (HolomorphicSeries([0, 0, 1.0]) * xi).derivative()
        assert max(
            abs(got.coefficient(k) - expect.coefficient(k)) for k in range(6)
        ) < 1e-12

    def test_scaled_disk_constant(self):
        m = ConformalMap(HolomorphicSeries([0.0, 2.0]))
        got = adjoint_dz_mapped(m, HolomorphicSeries([1.0]), degree=3)
        assert abs(got.coefficient(1) - 0.5) < 1e-12
        # hand check of the defining pairing: <1, (w)_w> = 4 pi = <w/2, w>
        lhs = map_inner_product(m, monomial(0, 0), monomial(0, 0)).real
        w = HolomorphicSeries([0, 1.0])
        rhs = map_inner_product(m, m.compose_with(got).to_field(), m.compose_with(w).to_field()).real
        assert lhs == pytest.approx(4 * PI)
        assert rhs == pytest.approx(4 * PI)

    def test_zero_maps_to_zero(self):
        assert not adjoint_dz_mapped(gentle_map(), HolomorphicSeries([]), degree=3)

    def test_adjoint_identity_gentle_map(self):
        m = gentle_map()
        worst = 0.0
        for j in range(7):
            xi = HolomorphicSeries([0] * j + [1.0])
            adj = adjoint_dz_mapped(m, xi, degree=10)
            for k in range(7):
                eta = HolomorphicSeries([0] * k + [1.0])
                lhs = map_inner_product(
                    m, m.compose_with(xi, 24).to_field(),
                    m.compose_with(eta.derivative(), 24).to_field(),
                ).real
                rhs = map_inner_product(
                    m, m.compose_with(adj, 24).to_field(), m.compose_with(eta, 24).to_field()
                ).real
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-8


def _gathered_operator(self, size):
    return oracles.gathered_toeplitz(self.phi_prime.to_array(size), size)


class TestPhiPrimeOperator:
    @given(st.lists(coefficient, max_size=45), st.integers(0, 40))
    @example([0j, 1.0, 0.5], 40)  # deg phi' below the size
    @example([0j] + [1.0] * 44, 3)  # deg phi' above the size
    @example([], 1)  # phi' = 0
    @example([0j, 1.0], 0)  # size 0
    @settings(max_examples=100, deadline=None)
    def test_toeplitz_view_matches_where_construction(self, phi, size):
        m = ConformalMap(HolomorphicSeries(phi), validate=False)
        got = m.phi_prime_operator(size)
        ref = oracles.where_toeplitz(m.phi_prime.to_array(size))
        assert np.array_equal(got, ref)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert got.tobytes() == _gathered_operator(m, size).tobytes()
        assert got.shape == (size, size) and not got.flags.writeable

    @given(st.lists(coefficient, max_size=5), st.integers(0, 5), st.integers(0, 2),
           st.sampled_from(["dense", "one column", "empty"]), st.integers(0, 2**32 - 1))
    @example([], 0, 0, "empty", 0)  # phi = z, f = 0: an operator of size 0
    @example([], 3, 0, "one column", 1)
    @example([0.5, 0.2j], 4, 2, "one column", 2)
    @settings(max_examples=60, deadline=None)
    def test_view_products_match_the_gathered_operator(self, tail, degree, slack, kind, seed):
        # phi = z + small higher terms, so the Gram system stays well conditioned
        phi = HolomorphicSeries([0j, 1.0] + [c / (50 * (k + 2)) for k, c in enumerate(tail)])
        rng = np.random.default_rng(seed)
        f = s.random_field(rng, 4)
        f = {"dense": f, "one column": f.holomorphic_part(), "empty": s.zero_field()}[kind]
        got, ref = (ConformalMap(phi, validate=False) for _ in range(2))
        cap = got.natural_cap(degree) + slack
        with mock.patch.object(ConformalMap, "phi_prime_operator", _gathered_operator):
            want = ref.basis_matrix(degree, cap), project_con_mapped(ref, f, degree, cap).coeffs
        have = got.basis_matrix(degree, cap), project_con_mapped(got, f, degree, cap).coeffs
        for a, b in zip(have, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable

    def test_cached_operators_are_read_only(self):
        m = gentle_map()
        for arr in (m.phi_prime_operator(5), m.basis_matrix(3, 8), *m.gram(3, 8)):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
