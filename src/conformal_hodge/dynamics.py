"""Variational dynamics of conformal fields: stationary points, waves, geodesics.

The wave equation integrates with kick-drift-kick leapfrog (the quadratic
potential turns the modes into uncoupled oscillators, which the symplectic
scheme tracks with bounded energy error); the geodesic embedding flow uses
classical RK4 with re-projection onto the conformal subspace each stage.
One stage's right-hand side is array expressions on pulled-back
coefficient vectors: two outer products and one convolution, cut at
m + n <= degree, then the mapped projection, which gathers its map's phi'
operator on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .disk import adjoint_dz_disk
from .mapping import (
    ConformalMap,
    EmbeddingError,
    _solve_gram,
    adjoint_dz_mapped,
    map_inner_product,
    map_norm,
    project_con_mapped,
)
from .series import (
    DEFAULT_MAX_DEGREE,
    BivariateField,
    HolomorphicSeries,
    as_series,
    coefficient_norm,
    scale,
)


MIN_DERIV_FLOOR = 1e-3  # min |phi'| below which the geodesic flow stops


class IntegrationInstabilityError(RuntimeError):
    """Coefficient norm blew up; reduce dt (stability needs dt * omega_max < 2)."""


class GeodesicDegeneracyError(RuntimeError):
    """The evolving embedding lost its immersion or boundary injectivity."""


# -- potential ------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """V(z) = c |z|^2 / 2, whose gradient c z makes the force grad(V) o xi = c xi linear."""

    c: float

    @staticmethod
    def quadratic(c):
        return PotentialSpec(float(c))


# -- stationary problem ----------------------------------------------------------


def stationary_residual(xi, V: PotentialSpec, domain=None, proj_degree=None):
    """Adjoint-derivative term plus projected potential force; zero at stationary points.

    domain is None for the disk, where the force c xi is holomorphic and so
    its own projection, or a ConformalMap, whose projection of the pulled-back
    force runs at proj_degree (default deg xi + 1).
    """
    xi = as_series(xi)
    if domain is None:
        return adjoint_dz_disk(xi.derivative()) + xi * V.c
    mapping: ConformalMap = domain
    if proj_degree is None:
        proj_degree = xi.degree + 1
    adj = adjoint_dz_mapped(mapping, xi.derivative(), degree=proj_degree)
    pulled = mapping.compose_with(xi)
    forced = project_con_mapped(mapping, scale(pulled.to_field(), V.c), degree=proj_degree)
    return adj + forced


@dataclass(frozen=True)
class StationaryResult:
    xi: HolomorphicSeries
    iterations: int
    converged: bool
    residual_norm: float


def stationary_matrix(V: PotentialSpec, domain, n):
    """Matrix L of the residual on coefficient vectors of length n (m = n + 2 rows).

    L x is the residual of x at proj_degree=n, which is complex-linear in xi.
    On the disk (domain None) L maps z^k to (k(k+1) + c) z^k.  On a mapped
    disk U it is the Galerkin form G^-1 K + c I of D*D xi + c xi on
    z^0 ... z^n: G is the Gram matrix of the monomials in L^2(U), read off
    the map's cached factor at degree n and cap natural_cap(n), and
    K[j, k] = j k G[j-1, k-1].
    """
    L = np.zeros((n + 2, n), dtype=complex)  # adjoint raises the degree by one; keep slack
    if domain is None:
        np.fill_diagonal(L, np.arange(n) * np.arange(1, n + 1) + V.c)
        return L
    cap = domain.natural_cap(n)
    w, Q = domain.gram(n, cap)
    G = (Q * w) @ Q.conj().T
    K = np.zeros((n + 1, n), dtype=complex)
    K[1:, 1:] = np.outer(np.arange(1, n + 1), np.arange(1, n)) * G[:n, : n - 1]
    L[: n + 1] = _solve_gram(domain, K, n, cap)
    L[:n] += V.c * np.eye(n)
    return L


def stationary_solve(V: PotentialSpec, init, tol=1e-10, max_iter=50,
                     domain=None, degree=None) -> StationaryResult:
    """Least-squares steps x += lstsq(L, -r) on the truncated coefficient vector.

    r is the residual of the iterate itself (stationary_residual at
    proj_degree n), so L only steers the step: convergence and residual_norm
    are read from r, never from L x.  Non-convergence is a reported outcome,
    not an exception: the last iterate comes back with converged=False.  An
    init above the degree is cut with a TruncationWarning.  domain is None
    for the disk or a ConformalMap.  No multipliers are reported: on the
    disk the unprojected residual D*D xi + c xi is holomorphic, so its
    Lagrange multipliers are zero for every xi.
    """
    init = as_series(init)
    n = (degree if degree is not None else max(init.degree, 1)) + 1
    m = n + 2
    L = stationary_matrix(V, domain, n)
    x = init.truncated(n - 1).to_array(n)

    def residual(x):
        r = stationary_residual(HolomorphicSeries(x), V, domain=domain, proj_degree=n)
        return r.to_array(m), coefficient_norm(r)

    r, rnorm = residual(x)
    iterations = 0
    while rnorm > tol and iterations < max_iter:
        x = x + np.linalg.lstsq(L, -r, rcond=None)[0]
        r, rnorm = residual(x)
        iterations += 1
    return StationaryResult(
        xi=HolomorphicSeries(x),
        iterations=iterations,
        converged=bool(rnorm <= tol),
        residual_norm=rnorm,
    )


# -- conformal wave equation -------------------------------------------------------


@dataclass(frozen=True)
class WaveState:
    xi: HolomorphicSeries
    xi_t: HolomorphicSeries


def first_integrals(state: WaveState, c, max_m) -> tuple:
    """Per-mode oscillator energies I_m = |xi_t_m|^2/2 + (m^2+m+c)|xi_m|^2/2, m <= max_m."""
    x = state.xi.to_array(max_m + 1)
    v = state.xi_t.to_array(max_m + 1)
    k = np.arange(max_m + 1)
    vals = 0.5 * np.abs(v) ** 2 + 0.5 * (k * k + k + c) * np.abs(x) ** 2
    return tuple(vals.tolist())


def wave_mode_solution(m, c, xi0, xidot0, t):
    """Exact evolution of a single mode: oscillator, drift, or hyperbolic growth."""
    w2 = m * m + m + c
    xi0 = complex(xi0)
    xidot0 = complex(xidot0)
    if w2 > 0:
        w = math.sqrt(w2)
        return (
            xi0 * math.cos(w * t) + xidot0 * math.sin(w * t) / w,
            -xi0 * w * math.sin(w * t) + xidot0 * math.cos(w * t),
        )
    if w2 == 0:
        return (xi0 + t * xidot0, xidot0)
    mu = math.sqrt(-w2)
    return (
        xi0 * math.cosh(mu * t) + xidot0 * math.sinh(mu * t) / mu,
        xi0 * mu * math.sinh(mu * t) + xidot0 * math.cosh(mu * t),
    )


@dataclass(frozen=True)
class WaveTrajectory:
    times: tuple
    xi: tuple  # coefficient arrays per sample
    xi_t: tuple
    integrals: tuple  # first_integrals tuple per sample


def wave_integrate(state0: WaveState, V: PotentialSpec, dt, steps, sample_stride=1,
                   max_m=6) -> WaveTrajectory:
    """Stoermer-Verlet (kick-drift-kick) on the coefficient vector.

    The acceleration is the diagonal map -(m^2+m+c) xi_m, and per-mode
    energies are reported at every sample.  Stability needs dt < 2/omega_max
    with omega_max^2 = D^2+D+c at the truncation degree D; a coefficient norm
    past 1e6 x the initial one aborts (numpy's overflow warnings are muted,
    since that check reports the failure).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = max(state0.xi.degree, state0.xi_t.degree, max_m) + 1
    x = state0.xi.to_array(n)
    v = state0.xi_t.to_array(n)
    ks = np.arange(n, dtype=float)
    diag = ks * ks + ks + V.c
    times, xs, vs, reports = [], [], [], []

    def record(step):
        times.append(step * dt)
        xs.append(x.copy())
        vs.append(v.copy())
        st = WaveState(HolomorphicSeries(x), HolomorphicSeries(v))
        reports.append(first_integrals(st, V.c, max_m))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        initial_scale = max(float(np.linalg.norm(x)) + float(np.linalg.norm(v)), 1.0)
        record(0)
        a = -diag * x
        for step in range(1, steps + 1):
            v_half = v + 0.5 * dt * a
            x = x + dt * v_half
            a = -diag * x
            v = v_half + 0.5 * dt * a
            if not np.linalg.norm(x) <= 1e6 * initial_scale:  # NaN fails too
                raise IntegrationInstabilityError(
                    f"coefficient norm exceeded 1e+06 x initial at step {step}; dt*omega_max"
                    f" = {dt * math.sqrt(max(diag[-1], 0.0)):.3g} (stability needs < 2)")
            if step % sample_stride == 0 or step == steps:
                record(step)
    return WaveTrajectory(tuple(times), tuple(xs), tuple(vs), tuple(reports))


# -- geodesic flow of conformal embeddings ------------------------------------------


@dataclass(frozen=True)
class GeodesicState:
    phi: ConformalMap
    xi: HolomorphicSeries  # velocity in image coordinates


@functools.cache
def _above_degree(max_degree):
    """Mask of the entries m + n > max_degree of a square table of side max_degree + 1."""
    k = np.arange(max_degree + 1)
    mask = k[:, None] + k[None, :] > max_degree
    mask.flags.writeable = False
    return mask


def geodesic_rhs(state: GeodesicState, proj_degree, max_degree):
    """Time derivatives (phi_dot, xi_dot) of the embedding flow.

    phi_dot is the pulled-back velocity X = xi o phi.  xi_dot is the
    projection of conj(xi) * adjoint_dz(xi) - 2 div(xi) xi; the orthogonal
    multiplier terms are absorbed by the projection and recoverable on
    demand from the unprojected field.  Pulled back, with A = adjoint_dz(xi)
    o phi and Y = xi' o phi, that field has the table
    outer(A, conj X) - 2 outer(X, conj Y), minus 2 X Y in column 0 (div(xi)
    o phi = Y + conj Y), cut at m + n <= max_degree.
    """
    mapping, xi = state.phi, state.xi
    n = max_degree + 1
    xi_pull = mapping.compose_with(xi, max_degree)
    aT = adjoint_dz_mapped(mapping, xi, degree=proj_degree, max_degree=max_degree)
    X = xi_pull.to_array(n)
    A = mapping.compose_with(aT, max_degree).to_array(n)
    Y = mapping.compose_with(xi.derivative(), max_degree).to_array(n)
    B = np.outer(A, X.conj()) - 2 * np.outer(X, Y.conj())
    B[:, 0] -= 2 * np.convolve(Y, X)[:n]
    # degree-budget truncation is the design here, so drop mass silently
    B[_above_degree(max_degree)] = 0
    xi_dot = project_con_mapped(mapping, BivariateField(B, max_degree), degree=proj_degree,
                                max_degree=max_degree)
    return xi_pull, xi_dot


def geodesic_energy(state: GeodesicState) -> float:
    field = state.phi.compose_with(state.xi).to_field()
    return 0.5 * map_inner_product(state.phi, field, field).real


@dataclass(frozen=True)
class GeodesicTrajectory:
    times: tuple
    phi: tuple  # coefficient arrays per sample
    xi: tuple
    energy: tuple
    min_deriv: tuple


def geodesic_integrate(state0: GeodesicState, dt, steps, sample_stride=1,
                       degree=DEFAULT_MAX_DEGREE, proj_degree=None) -> GeodesicTrajectory:
    """Classical RK4 on the pair of coefficient vectors.

    The velocity stays a holomorphic series by construction (every stage
    output passes through the conformal projection).  Each accepted step the
    map is revalidated: min |phi'| under MIN_DERIV_FLOOR (the message names
    the certification failure when min |phi'| is 0) or a boundary
    self-intersection aborts the run, as does a stage whose Gram matrix
    overflows (GeodesicDegeneracyError naming the step); numpy's overflow
    warnings on the way there are muted.  A map or velocity above its degree
    is cut with a TruncationWarning.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if proj_degree is None:
        proj_degree = max(state0.xi.degree + 1, 2)
    n_phi = degree + 1
    n_xi = proj_degree + 1
    phi_arr = state0.phi.phi.truncated(degree).to_array(n_phi)
    xi_arr = state0.xi.truncated(proj_degree).to_array(n_xi)

    def rhs(phi_c, xi_c):
        mapping = ConformalMap(HolomorphicSeries(phi_c), validate=False)
        st = GeodesicState(mapping, HolomorphicSeries(xi_c))
        phi_dot, xi_dot = geodesic_rhs(st, proj_degree=proj_degree, max_degree=degree)
        return phi_dot.to_array(n_phi), xi_dot.to_array(n_xi)

    times, phis, xis, energies, derivs = [], [], [], [], []

    def record(step, mapping):
        times.append(step * dt)
        phis.append(phi_arr.copy())
        xis.append(xi_arr.copy())
        st = GeodesicState(mapping, HolomorphicSeries(xi_arr))
        energies.append(geodesic_energy(st))
        derivs.append(mapping.min_deriv)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the given map serves step 0 unless the degree cuts it: its min |phi'| may be known
        record(0, state0.phi if state0.phi.phi.degree <= degree
               else ConformalMap(HolomorphicSeries(phi_arr), validate=False))
        for step in range(1, steps + 1):
            try:
                k1p, k1x = rhs(phi_arr, xi_arr)
                k2p, k2x = rhs(phi_arr + 0.5 * dt * k1p, xi_arr + 0.5 * dt * k1x)
                k3p, k3x = rhs(phi_arr + 0.5 * dt * k2p, xi_arr + 0.5 * dt * k2x)
                k4p, k4x = rhs(phi_arr + dt * k3p, xi_arr + dt * k3x)
            except FloatingPointError as exc:
                raise GeodesicDegeneracyError(f"{exc} in a stage of step {step}") from exc
            phi_arr = phi_arr + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            xi_arr = xi_arr + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
            mapping = ConformalMap(HolomorphicSeries(phi_arr), validate=False)
            if mapping.min_deriv < MIN_DERIV_FLOOR:
                why = mapping.deriv_failure
                raise GeodesicDegeneracyError(
                    f"min |phi'| = {mapping.min_deriv:.3e} fell below the floor "
                    f"{MIN_DERIV_FLOOR:g} at step {step}" + (f": {why}" if why else "")
                )
            try:
                mapping.check_boundary_injectivity()
            except EmbeddingError as exc:
                raise GeodesicDegeneracyError(
                    f"boundary self-intersection at step {step}: {exc}"
                ) from exc
            if step % sample_stride == 0 or step == steps:
                record(step, mapping)
    return GeodesicTrajectory(tuple(times), tuple(phis), tuple(xis), tuple(energies),
                              tuple(derivs))


# -- variation identity (finite-difference verification) ----------------------------


def solve_composition(inner: HolomorphicSeries, rhs: HolomorphicSeries, degree):
    """Find series c with c(inner(z)) = rhs(z) matched through the available orders."""
    rows = max(rhs.degree, degree * max(inner.degree, 1)) + 1
    M = inner.power_table(degree, rows - 1).T
    sol, *_ = np.linalg.lstsq(M, rhs.to_array(rows), rcond=None)
    return HolomorphicSeries(sol)


def variation_identity_defect(mapping: ConformalMap, xi, eta0, eta1,
                              eps=1e-5, out_degree=None, max_degree=None):
    """Central-difference check of the variation formula for the velocity field.

    Vary the embedding by s -> phi + s (eta0 o phi) with time derivative
    carrying eta1 = d(eta)/dt; the recovered velocity variation must match
    eta1 + eta0' xi - xi' eta0.  Returns (defect_norm, closed_form_norm) in
    the weighted norm of the image domain.
    """
    xi, eta0, eta1 = as_series(xi), as_series(eta0), as_series(eta1)
    if out_degree is None:
        out_degree = xi.degree + eta0.degree + 4
    if max_degree is None:
        max_degree = 4 * max(
            mapping.natural_cap(out_degree), DEFAULT_MAX_DEGREE
        )
    phi = mapping.phi
    phi_dot = mapping.compose_with(xi, max_degree)
    eta0_pull = mapping.compose_with(eta0, max_degree)
    eta1_pull = mapping.compose_with(eta1, max_degree)
    eta0p_pull = mapping.compose_with(eta0.derivative(), max_degree)

    phi_dot_rate = eta1_pull + HolomorphicSeries((eta0p_pull * phi_dot).coeffs[: max_degree + 1])

    def velocity(s):
        return solve_composition(phi + s * eta0_pull, phi_dot + s * phi_dot_rate, out_degree)

    fd = (velocity(eps) - velocity(-eps)) * (1.0 / (2 * eps))
    bracket = eta0.derivative() * xi - xi.derivative() * eta0
    closed = eta1 + HolomorphicSeries(bracket.coeffs[: out_degree + 1])
    diff = fd - closed
    diff_pull = mapping.compose_with(diff, max_degree)
    closed_pull = mapping.compose_with(closed, max_degree)
    return map_norm(mapping, diff_pull), map_norm(mapping, closed_pull)
