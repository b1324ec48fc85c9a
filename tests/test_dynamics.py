"""Stationary solver, wave integrator, first integrals, and geodesic flow."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hodge import dynamics
from conformal_hodge import series as s
from conformal_hodge.disk import adjoint_dz_disk, conformal_decompose
from conformal_hodge.dynamics import (
    GeodesicDegeneracyError,
    GeodesicState,
    IntegrationInstabilityError,
    PotentialSpec,
    WaveState,
    first_integrals,
    geodesic_integrate,
    geodesic_rhs,
    stationary_matrix,
    stationary_residual,
    stationary_solve,
    variation_identity_defect,
    wave_integrate,
    wave_mode_solution,
)
from conformal_hodge.mapping import ConformalMap, GramConditionWarning
from conformal_hodge.series import HolomorphicSeries, TruncationWarning

import oracles


class TestStationary:
    def test_constant_is_stationary_without_potential(self):
        assert not stationary_residual(HolomorphicSeries([2.0 + 1j]), PotentialSpec.quadratic(0.0))

    def test_mode_balance_at_c_minus_two(self):
        assert not stationary_residual(
            HolomorphicSeries([0, 1.0]), PotentialSpec.quadratic(-2.0)
        )

    def test_z_without_potential(self):
        out = stationary_residual(HolomorphicSeries([0, 1.0]), PotentialSpec.quadratic(0.0))
        assert out == HolomorphicSeries([0, 2.0])

    def test_solve_trivial(self):
        res = stationary_solve(PotentialSpec.quadratic(0.0), HolomorphicSeries([]))
        assert res.converged and res.iterations == 0
        assert not res.xi

    def test_solve_converges_to_mode_one_family(self):
        res = stationary_solve(
            PotentialSpec.quadratic(-2.0), HolomorphicSeries([0.05, 0.9, 0.02]), degree=4
        )
        assert res.converged
        assert res.residual_norm <= 1e-10
        assert abs(res.xi.coefficient(0)) < 1e-10
        assert abs(res.xi.coefficient(2)) < 1e-10
        assert abs(res.xi.coefficient(1)) > 0.5

    def test_solve_positive_definite_unique_zero(self):
        res = stationary_solve(PotentialSpec.quadratic(1.0), HolomorphicSeries([0.0]), degree=4)
        assert res.converged and not res.xi

    def test_stationary_points_are_wave_equilibria(self):
        # started at rest on a stationary point, the wave stays put
        V = PotentialSpec.quadratic(-2.0)
        res = stationary_solve(V, HolomorphicSeries([0.0, 0.8]), degree=4)
        traj = wave_integrate(WaveState(res.xi, HolomorphicSeries([])), V, 1e-2, 100)
        x0 = res.xi.to_array(len(traj.xi[0]))
        assert max(np.max(np.abs(x - x0)) for x in traj.xi) <= 1e-10
        assert max(np.max(np.abs(v)) for v in traj.xi_t) <= 1e-10

    def test_init_above_degree_is_cut_with_a_warning(self):
        # c = -6 makes z^2 stationary; the z^5 term of the init lies above degree 3
        init = HolomorphicSeries([0, 0, 0.3, 0, 0, 0.1])
        with pytest.warns(TruncationWarning, match="dropped coefficient mass 1.000e-01") as record:
            res = stationary_solve(PotentialSpec.quadratic(-6.0), init, degree=3)
        assert res.converged
        assert res.xi == HolomorphicSeries([0, 0, 0.3])
        assert [w.filename for w in record] == [__file__]  # the caller's line, not the library's

    def test_init_within_degree_is_not_reported(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            stationary_solve(PotentialSpec.quadratic(-6.0), HolomorphicSeries([0, 0, 0.3]),
                             degree=3)

    def test_mapped_solution_is_nontrivial(self):
        # c = 0: the constants are the stationary fields, so the step must
        # remove the z and z^2 modes of the init and keep its constant
        res = stationary_solve(PotentialSpec.quadratic(0.0), HolomorphicSeries([1.5, 0.3, -0.2]),
                               domain=probe_map())
        assert res.converged
        assert res.xi.coefficient(0) == pytest.approx(1.5, abs=1e-12)
        assert np.max(np.abs(res.xi.coeffs[1:]), initial=0.0) <= 1e-12

    def test_mapped_domain_residual(self):
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
        out = stationary_residual(
            HolomorphicSeries([1.5]), PotentialSpec.quadratic(0.0), domain=m
        )
        assert s.norm(out.to_field()) < 1e-10  # constants stay stationary

    def test_map_caches_hold_no_series_keys(self):
        m = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
        res = stationary_solve(PotentialSpec.quadratic(-1.0), HolomorphicSeries([0.1, 0.2]),
                               domain=m, max_iter=2)
        assert res.iterations > 0
        keys = [k if isinstance(k, tuple) else (k,) for k in m._caches]
        assert all(isinstance(part, (str, int)) for key in keys for part in key)


def probe_map():
    # at n = 17 the Jacobian column of z^16 has norm 270 at one projection
    # degree, but 1.3e5 when differenced across two degrees
    return ConformalMap(HolomorphicSeries([0.0, 1.0, 0.05 + 0.03j, 0.01j]))


def random_gentle_map(seed):
    # sum k |a_k| = 0.3 < 1 keeps Re phi' > 0 (univalent)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return ConformalMap(HolomorphicSeries([0.0, 1.0, *(0.1 * c / (np.arange(2, 5) * abs(c)))]))


def scale_one_column(L):
    L[:, 1] *= 1.01


def move_null_space(L):
    L[:, 0] -= L[:, 1]  # at c = 0 the null vector z^0 becomes z^0 + z^1


class TestStationaryMatrix:
    @pytest.mark.parametrize("make_map", [probe_map, lambda: random_gentle_map(7)],
                             ids=["probe", "random"])
    def test_matches_fixed_degree_finite_differences(self, make_map):
        m, V, n = make_map(), PotentialSpec.quadratic(-1.3), 17
        L = stationary_matrix(V, m, n)
        x = HolomorphicSeries([0.2, -0.3, 0.1]).to_array(n)

        def residual(v):
            return stationary_residual(HolomorphicSeries(v), V, domain=m,
                                       proj_degree=n).to_array(n + 2)

        J = oracles.fd_jacobian(residual, x)
        assert np.linalg.norm(J[:, 0::2] - L) <= 1e-6 * np.linalg.norm(L)
        assert np.linalg.norm(J[:, 1::2] - 1j * L) <= 1e-6 * np.linalg.norm(L)

    @pytest.mark.parametrize("domain", [None, probe_map(), random_gentle_map(8)],
                             ids=["disk", "probe", "random"])
    def test_product_is_fixed_degree_residual(self, domain):
        V, n = PotentialSpec.quadratic(0.7), 9
        L = stationary_matrix(V, domain, n)
        rng = np.random.default_rng(9)
        for _ in range(3):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = stationary_residual(HolomorphicSeries(x), V, domain=domain,
                                      proj_degree=n).to_array(n + 2)
            assert np.linalg.norm(L @ x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("perturb", [scale_one_column, move_null_space])
    def test_convergence_is_read_from_the_true_residual(self, monkeypatch, perturb):
        # a wrong L may slow the steps, but the solver must not report
        # convergence unless the residual of its own answer is within tol
        exact = dynamics.stationary_matrix

        def perturbed(V, domain, n):
            L = exact(V, domain, n)
            perturb(L)
            return L

        monkeypatch.setattr(dynamics, "stationary_matrix", perturbed)
        # c = 0: the constants are stationary, and init keeps 1.5 of them
        V, m, tol = PotentialSpec.quadratic(0.0), probe_map(), 1e-10
        init = HolomorphicSeries([1.5, 0.3, -0.2])
        runs = [stationary_solve(V, init, tol=tol, max_iter=k, domain=m) for k in (1, 50)]
        for res in runs:
            true = s.coefficient_norm(stationary_residual(res.xi, V, domain=m, proj_degree=3))
            assert res.residual_norm == true
            assert res.converged == (true <= tol)
        assert not runs[0].converged and runs[0].residual_norm > 1e-3
        assert runs[1].converged and runs[1].iterations > 1

    @pytest.mark.parametrize("c", [0.0, -2.0, 1.5])
    def test_disk_matrix_is_the_wave_operator(self, c):
        # on the disk the residual of z^k is (k^2 + k + c) z^k, minus the wave acceleration
        n = 6
        L = stationary_matrix(PotentialSpec.quadratic(c), None, n)
        k = np.arange(n)
        expect = np.vstack([np.diag(k * k + k + c), np.zeros((2, n))])
        assert np.max(np.abs(L - expect)) <= 1e-12

    @given(st.integers(1, 39), st.one_of(st.sampled_from([0.0, -0.0, -2.0, -6.0]),
                                         st.floats(-10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_disk_closed_form_matches_column_route(self, n, c):
        V = PotentialSpec.quadratic(c)
        got, ref = stationary_matrix(V, None, n), oracles.stationary_matrix(V, None, n)
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c", [0.0, -2.0, 1.3])
    def test_identity_map_gives_the_disk_closed_form(self, c):
        # on phi(z) = z the Gram route G^-1 K + c I must reproduce diag(k(k+1) + c)
        V, identity = PotentialSpec.quadratic(c), ConformalMap.identity()
        for n in range(1, 41):
            got, ref = stationary_matrix(V, identity, n), stationary_matrix(V, None, n)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


class TestModeSolution:
    def test_frequencies(self):
        xi, _ = wave_mode_solution(1, 0.0, 1.0, 0.0, math.pi / math.sqrt(2.0))
        assert xi == pytest.approx(-1.0)  # half period of omega = sqrt(2)

    def test_example_full_period(self):
        xi, xidot = wave_mode_solution(0, 4.0, 1.0, 0.0, math.pi)
        assert xi == pytest.approx(1.0)
        assert xidot == pytest.approx(0.0, abs=1e-12)

    def test_drift_mode(self):
        xi, xidot = wave_mode_solution(0, 0.0, 2.0, 0.5j, 3.0)
        assert xi == pytest.approx(2.0 + 1.5j)
        assert xidot == 0.5j

    def test_solutions_satisfy_the_ode(self):
        # second finite difference reproduces -(m^2+m+c) xi for all regimes
        h = 1e-4
        for m, c in ((1, 0.0), (0, 4.0), (0, -2.0), (2, -7.0)):
            x0, v0 = 0.7 - 0.2j, 0.3 + 0.1j
            t = 0.8
            xm, _ = wave_mode_solution(m, c, x0, v0, t - h)
            x, v = wave_mode_solution(m, c, x0, v0, t)
            xp, _ = wave_mode_solution(m, c, x0, v0, t + h)
            acc = (xp - 2 * x + xm) / h**2
            assert acc == pytest.approx(-(m * m + m + c) * x, abs=1e-5)

    def test_velocity_consistency(self):
        h = 1e-6
        x0, v0 = 1.0, 0.25j
        for m, c in ((1, 0.0), (0, -2.0)):
            xm, _ = wave_mode_solution(m, c, x0, v0, 1.0 - h)
            xp, _ = wave_mode_solution(m, c, x0, v0, 1.0 + h)
            _, v = wave_mode_solution(m, c, x0, v0, 1.0)
            assert (xp - xm) / (2 * h) == pytest.approx(v, abs=1e-7)


class TestWaveIntegrate:
    def test_zero_data_stays_zero(self):
        traj = wave_integrate(
            WaveState(HolomorphicSeries([]), HolomorphicSeries([])),
            PotentialSpec.quadratic(0.0), 1e-2, 100,
        )
        assert all(np.all(x == 0) for x in traj.xi)

    def test_matches_mode_solution(self):
        state0 = WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([]))
        traj = wave_integrate(state0, PotentialSpec.quadratic(0.0), 1e-3, 10000, sample_stride=100)
        worst = max(
            abs(x[1] - wave_mode_solution(1, 0.0, 1.0, 0.0, t)[0])
            for t, x in zip(traj.times, traj.xi)
        )
        assert worst <= 1e-4

    def test_first_integral_drift(self):
        state0 = WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([]))
        traj = wave_integrate(state0, PotentialSpec.quadratic(0.0), 1e-3, 10000, sample_stride=50)
        i1 = [rep[1] for rep in traj.integrals]
        assert max(abs(v - i1[0]) for v in i1) / i1[0] <= 1e-6

    def test_second_order_convergence(self):
        state0 = WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([0.3j]))

        def final_err(dt, steps):
            traj = wave_integrate(state0, PotentialSpec.quadratic(1.0), dt, steps,
                                  sample_stride=steps)
            t = traj.times[-1]
            exact = wave_mode_solution(1, 1.0, 1.0, 0.0, t)[0]
            return abs(traj.xi[-1][1] - exact)

        e1, e2 = final_err(2e-3, 2500), final_err(1e-3, 5000)
        order = math.log2(e1 / e2)
        assert 1.9 <= order <= 2.1

    def test_instability_detected(self):
        state0 = WaveState(HolomorphicSeries([0, 0, 0, 1.0]), HolomorphicSeries([]))
        with pytest.raises(IntegrationInstabilityError):
            wave_integrate(state0, PotentialSpec.quadratic(1e7), 1e-2, 2000)

    def test_infinite_dt_detected(self):
        # the first drift makes the state NaN, which a plain `norm > bound` test lets through
        state0 = WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the integrator mutes numpy's
            with pytest.raises(IntegrationInstabilityError):
                wave_integrate(state0, PotentialSpec.quadratic(1.0), math.inf, 5)

    def test_overflow_detected_without_numpy_warnings(self):
        state0 = WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationInstabilityError, match="at step 1;"):
                wave_integrate(state0, PotentialSpec.quadratic(0.0), 1e300, 2)

class TestFirstIntegrals:
    def test_single_mode(self):
        rep = first_integrals(
            WaveState(HolomorphicSeries([0, 1.0]), HolomorphicSeries([])), 0.0, 6
        )
        assert rep[1] == pytest.approx(1.0)
        assert all(v == 0 for i, v in enumerate(rep) if i != 1)

    def test_velocity_only(self):
        rep = first_integrals(
            WaveState(HolomorphicSeries([]), HolomorphicSeries([1.0])), 0.0, 3
        )
        assert rep[0] == pytest.approx(0.5)

    def test_quadratic_scaling(self):
        st0 = WaveState(HolomorphicSeries([0.5, 1.0]), HolomorphicSeries([0.2j]))
        st2 = WaveState(HolomorphicSeries([1.0, 2.0]), HolomorphicSeries([0.4j]))
        r1 = first_integrals(st0, 2.0, 4)
        r2 = first_integrals(st2, 2.0, 4)
        for a, b in zip(r1, r2):
            assert b == pytest.approx(4 * a)


class TestGeodesic:
    def test_zero_velocity_is_fixed_point(self):
        st = GeodesicState(ConformalMap.identity(), HolomorphicSeries([]))
        pd, xd = geodesic_rhs(st, proj_degree=2, max_degree=16)
        assert not pd and not xd
        traj = geodesic_integrate(st, 1e-2, 10, degree=6, proj_degree=3)
        assert all(e == 0 for e in traj.energy)
        assert np.max(np.abs(traj.phi[-1] - traj.phi[0])) == 0

    def test_constant_velocity_rhs(self):
        a = 0.3
        st = GeodesicState(ConformalMap.identity(), HolomorphicSeries([a]))
        pd, xd = geodesic_rhs(st, proj_degree=3, max_degree=16)
        assert pd == HolomorphicSeries([a])
        assert abs(xd.coefficient(1) - 2 * a * a) < 1e-12
        assert abs(xd.coefficient(0)) < 1e-12

    def test_energy_conservation_small_data(self):
        st = GeodesicState(ConformalMap.identity(), HolomorphicSeries([0.08, 0.05]))
        traj = geodesic_integrate(st, 1e-3, 300, sample_stride=30, degree=8, proj_degree=4)
        e0 = traj.energy[0]
        assert max(abs(e - e0) for e in traj.energy) / e0 <= 1e-8

    def test_fourth_order_convergence(self):
        st = GeodesicState(ConformalMap.identity(), HolomorphicSeries([0.05, 0.08]))

        def final(dt, steps):
            t = geodesic_integrate(st, dt, steps, sample_stride=steps,
                                   degree=10, proj_degree=5)
            return np.concatenate([t.phi[-1], t.xi[-1]])

        f1, f2, f4 = final(0.1, 10), final(0.05, 20), final(0.025, 40)
        e1 = np.linalg.norm(f1 - f2)
        e2 = np.linalg.norm(f2 - f4)
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    def test_degeneracy_abort(self, monkeypatch):
        st = GeodesicState(
            ConformalMap(HolomorphicSeries([0.0, 1.0, 0.2])),
            HolomorphicSeries([0.1]),
        )
        monkeypatch.setattr(dynamics, "MIN_DERIV_FLOOR", 0.9)  # min |phi'| is 0.6
        with pytest.raises(GeodesicDegeneracyError):
            geodesic_integrate(st, 1e-2, 5, degree=6, proj_degree=3)

    def test_degeneracy_abort_names_the_certification_failure(self):
        # phi' = 1 + 1.2 z vanishes at -1/1.2 inside the disk; the message said only
        # "min |phi'| = 0.000e+00 fell below the floor 0.001 at step 1"
        st = GeodesicState(ConformalMap(HolomorphicSeries([0.0, 1.0, 0.6]), validate=False),
                           HolomorphicSeries([0.01]))
        with pytest.raises(GeodesicDegeneracyError,
                           match=r"floor 0\.001 at step 1: phi' has 1 zero\(s\) in the unit disk"):
            geodesic_integrate(st, 1e-3, 2, degree=6, proj_degree=3)

    def test_gram_overflow_abort(self):
        # the stage maps stay finite while their Gram matrices overflow
        st = GeodesicState(ConformalMap.identity(), HolomorphicSeries([0.0, 5.0]))
        with pytest.raises(GeodesicDegeneracyError, match="not finite in a stage of step 2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                warnings.simplefilter("ignore", GramConditionWarning)
                geodesic_integrate(st, 1.0, 20, degree=8)

    def test_map_above_degree_is_cut_with_a_warning(self):
        coeffs = [0.0, 1.0] + [0.0] * 8 + [0.05]
        st = GeodesicState(ConformalMap(HolomorphicSeries(coeffs)), HolomorphicSeries([0.01]))
        with pytest.warns(TruncationWarning, match="dropped coefficient mass 5.000e-02") as record:
            traj = geodesic_integrate(st, 1e-3, 1, degree=4)
        assert traj.phi[0].tolist() == [0, 1, 0, 0, 0]
        assert [w.filename for w in record] == [__file__]

    def test_self_intersection_abort(self):
        # min |phi'| = 0.037 stays above the floor; only the boundary crosses itself
        coeffs = [0.0] + [3.3**k / math.factorial(k) / 3.3 for k in range(1, 25)]
        st = GeodesicState(ConformalMap(HolomorphicSeries(coeffs), validate=False),
                           HolomorphicSeries([]))
        with pytest.raises(GeodesicDegeneracyError, match="self-intersection at step 1"):
            geodesic_integrate(st, 1e-3, 2, degree=24)

    def test_multiplier_recovery_from_unprojected_rhs(self):
        # the defect between the unprojected quadratic-velocity field and its
        # projection decomposes into boundary-zero multipliers
        xi = HolomorphicSeries([0.2, 0.1])
        mapping = ConformalMap.identity()
        aT = adjoint_dz_disk(xi)
        xi_f = xi.to_field()
        div = s.add(xi.derivative().to_field(), s.conjugate(xi.derivative().to_field()))
        B = s.subtract(
            s.convolve(s.conjugate(xi_f), aT.to_field()),
            s.scale(s.convolve(div, xi_f), 2),
        )
        dec = conformal_decompose(B)
        scale = max(s.norm(B), 1e-30)
        assert dec.residual_norm <= 1e-10 * scale
        assert dec.multipliers.validate()
        # and the conformal part agrees with the projected right-hand side
        _, xd = geodesic_rhs(GeodesicState(mapping, xi), proj_degree=3, max_degree=16)
        gap = s.norm(s.subtract(dec.conformal.to_field(), xd.to_field()))
        assert gap <= 1e-9 * scale


class TestVariationIdentity:
    def test_identity_map_small_perturbation(self):
        mapping = ConformalMap.identity()
        defect, ref = variation_identity_defect(
            mapping,
            xi=HolomorphicSeries([0.1, 0.05]),
            eta0=HolomorphicSeries([0.0, 0.08, 0.02]),
            eta1=HolomorphicSeries([0.03, 0.0, 0.01]),
        )
        assert defect <= 1e-7 * max(ref, 1.0)

    def test_gentle_map(self):
        mapping = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
        defect, ref = variation_identity_defect(
            mapping,
            xi=HolomorphicSeries([0.07, 0.04]),
            eta0=HolomorphicSeries([0.02, 0.05]),
            eta1=HolomorphicSeries([0.0, 0.03]),
        )
        assert defect <= 1e-7 * max(ref, 1.0)
