"""Projections, adjoint derivative, and orthogonal decompositions on the unit disk.

Three independent routes compute the orthogonal projection onto conformal
(holomorphic) fields: a closed-form monomial rule, a reproducing-kernel
quadrature, and a Gram normal-equation solve.  One coefficient-exact
Dirichlet-Poisson solve gives the complex potential Phi = F + iG; its parts
are the Lagrange multiplier pair (F, G), and 2 d_z Phi spans the complement.
The conformal split serves the annulus too, with ``annulus.poisson_annulus``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import annulus, series
from .series import (
    BivariateField,
    HolomorphicSeries,
    add,
    angular_sums,
    as_field,
    boundary_max,
    conjugate,
    convolve,
    cr_residual,
    div_curl,
    evaluate_grid,
    imag_part,
    inner_product,
    norm,
    real_part,
    scale,
    subtract,
    wirtinger,
)
from .quadrature import QuadratureSpec, boundary_points, check_resolution, polar_nodes


class NonvanishingCheckError(ValueError):
    """The multiplier field psi vanishes somewhere in the closed disk, or cannot be
    certified not to."""


# -- projections --------------------------------------------------------------


def project_con_rule(f) -> HolomorphicSeries:
    """Closed-form projection: z^m zbar^n -> (m-n+1)/(m+1) z^(m-n) for m >= n, else 0."""
    t = as_field(f).table
    m, n = np.indices(t.shape)
    return HolomorphicSeries._like(angular_sums(t * ((m - n + 1) / (m + 1)))[t.shape[1] - 1 :])


def project_con_gram_oracle(f) -> HolomorphicSeries:
    """Least-squares projection onto span{1, z, ..., z^D}, D = f.max_degree.

    The normal equations are diagonal: the monomial basis is orthogonal, so
    the Gram matrix has entries pi/(k+1) and each coefficient is an
    independent one-line solve.
    """
    f = as_field(f)
    out = []
    for k in range(f.max_degree + 1):
        zk = series.monomial(k, 0)
        out.append(inner_product(f, zk) / inner_product(zk, zk).real)
    return HolomorphicSeries(out)


def project_con_bergman(f, quadrature=QuadratureSpec()) -> HolomorphicSeries:
    """Kernel-quadrature projection onto span{1, z, ..., z^d}, d = f.degree().

    Expanding the kernel in powers gives coefficient k as
    (k+1)/pi * integral of f(zeta) conj(zeta)^k dA; the integral is taken by
    Gauss-Legendre x trapezoid polar quadrature.  Under-resolved requests are
    reported via QuadratureResolutionWarning, not silently returned.
    """
    f = as_field(f)
    spec = QuadratureSpec(*quadrature)
    degree = f.degree()
    check_resolution(spec, f.degree(), degree)
    z, w = polar_nodes(spec)
    fz = evaluate_grid(f, z) * w
    conj_z = np.conj(z)
    out = []
    powers = np.ones_like(z)
    for k in range(degree + 1):
        moment = complex(np.sum(fz * powers))
        out.append((k + 1) / math.pi * moment)
        powers = powers * conj_z
    return HolomorphicSeries(out)


# -- adjoint of the complex derivative ----------------------------------------


def adjoint_dz_disk(h, max_degree=None) -> HolomorphicSeries:
    """Adjoint of d/dz on holomorphic fields over the disk: a_k z^k -> (k+2) a_k z^(k+1).

    A cut at max_degree is ``HolomorphicSeries.truncated``, whose
    TruncationWarning names the dropped coefficient mass.
    """
    result = (HolomorphicSeries([0, 0, 1.0]) * series.as_series(h)).derivative()
    return result if max_degree is None else result.truncated(max_degree)


# -- exact Dirichlet-Poisson solve --------------------------------------------


def poisson_disk(rhs) -> BivariateField:
    """Solve Laplace(F) = rhs with F = 0 on |z| = 1, exactly in coefficients.

    The particular solution lifts each term by (1,1) in the indices; its
    boundary trace is a trigonometric polynomial (zbar = 1/z on the circle)
    whose harmonic polynomial extension is subtracted off.  Both steps are
    complex-linear: any complex right-hand side is solved as it stands.
    """
    rhs = as_field(rhs)
    m, n = np.indices(rhs.table.shape)
    lifted = rhs.table / (4.0 * (m + 1) * (n + 1))
    rows, cols = lifted.shape
    out = np.zeros((rows + 1, cols + 1), dtype=complex)
    out[1:, 1:] = lifted
    # the trace of angular mode k is the sum of its diagonal, at k + cols - 1;
    # subtract its harmonic extension z^k (k >= 0) or zbar^-k (k < 0)
    trace = angular_sums(lifted)
    out[:rows, 0] -= trace[cols - 1 :]
    out[0, 1:cols] -= trace[: cols - 1][::-1]
    return BivariateField._like(out, rhs.max_degree + 2)


def grad_bar(potential):
    """Reflection gradient F_x - i F_y identified with 2 d_z F (F real)."""
    return scale(wirtinger(as_field(potential), "d_z"), 2)


def sgrad_bar(potential):
    """Reflection skew gradient G_y + i G_x identified with 2i d_z G (G real)."""
    return scale(wirtinger(as_field(potential), "d_z"), 2j)


# -- decomposition results -----------------------------------------------------


@dataclass(frozen=True)
class MultiplierPair:
    """Dirichlet boundary-zero potentials absorbing the non-conformal residue."""

    F: BivariateField
    G: BivariateField

    def boundary_trace_max(self):
        return max(boundary_max(self.F), boundary_max(self.G))


@dataclass(frozen=True)
class DecompositionResult:
    """The (name, field) parts a split computed, in reconstruction order, and
    the Gram matrix of exactly those parts; parts[0] is the conformal or the
    divergence-free part.  closed_form_defect is None but for `conformal`."""

    kind: str
    parts: tuple
    multipliers: MultiplierPair
    residual_norm: float
    orthogonality: tuple
    closed_form_defect: float | None


def _orthogonality_matrix(parts):
    """Re <<p, q>> over the named parts, one pairing per unordered pair: exactly symmetric."""
    fields = [p for _, p in parts]
    n = len(fields)
    re = {(i, j): inner_product(fields[i], fields[j]).real for i in range(n) for j in range(i, n)}
    return tuple(tuple(re[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


def conformal_split(f):
    """(h, F, G, grad_bar(F), sgrad_bar(G), stray, residue) with f = h + grad_bar(F) + sgrad_bar(G).

    One Dirichlet solve of Laplace(Phi) = 2 d_zbar f gives Phi = F + iG, zero
    on the boundary of f's domain: the disk, or the annulus r_in <= |z| <= 1
    with its log-level potentials.  grad_bar(F) + sgrad_bar(G) = 2 d_z Phi
    makes f - grad_bar(F) - sgrad_bar(G) holomorphic in exact arithmetic; h
    is its z-power part, and stray the coefficient norm of the zbar and log
    terms that exact arithmetic would cancel.
    """
    f = as_field(f)
    residue = cr_residual(f)
    potential = (annulus.poisson_annulus if f.r_in else poisson_disk)(residue)
    F, G = real_part(potential), imag_part(potential)
    gF = grad_bar(F)
    sG = sgrad_bar(G)
    rest = subtract(subtract(f, gF), sG)
    return rest.holomorphic_part(), F, G, gF, sG, rest.antiholomorphic_norm(), residue


def conformal_decompose(f) -> DecompositionResult:
    """Split f into conformal part + reflection gradients of Dirichlet potentials.

    The split is `conformal_split`; correctness is enforced by the
    reconstruction residual rather than by trusting the derivation.
    """
    f = as_field(f)
    h, F, G, gF, sG, _, _ = conformal_split(f)
    h = BivariateField._like(h.table, h.degree())  # written with max_degree equal to its degree
    parts = (("conformal", h), ("grad_bar_F", gF), ("sgrad_bar_G", sG))
    return DecompositionResult(
        kind="conformal",
        parts=parts,
        multipliers=MultiplierPair(F, G),
        residual_norm=norm(subtract(f, add(add(h, gF), sG))),
        orthogonality=_orthogonality_matrix(parts),
        closed_form_defect=norm(subtract(h, project_con_rule(f).to_field())),
    )


def helmholtz_decompose(f) -> DecompositionResult:
    """Split f into a divergence-free part plus the gradient of a Dirichlet potential.

    The divergence-free part is f minus the gradient, so the parts sum to f
    by construction; residual_norm is instead the L^2 norm of the divergence
    of that part, which is zero exactly when the Poisson solve is right.
    """
    f = as_field(f)
    F = poisson_disk(real_part(div_curl(f)))  # Laplace(F) = div f
    gradient = scale(wirtinger(F, "d_zbar"), 2)  # F_x + i F_y
    vol = subtract(f, gradient)
    parts = (("divergence_free", vol), ("gradient", gradient))
    return DecompositionResult(
        kind="helmholtz",
        parts=parts,
        multipliers=MultiplierPair(F, series.zero_field()),
        residual_norm=norm(real_part(div_curl(vol))),
        orthogonality=_orthogonality_matrix(parts),
        closed_form_defect=None,
    )


def symplectic_decompose(f) -> DecompositionResult:
    """The Helmholtz split under its area-form name.

    On a flat 2-D domain the symplectic form is the area form, and the
    contraction u dy - v dx of a field with it is closed exactly when the
    field is divergence-free; so the parts, and the residual_norm that
    measures that divergence, are the Helmholtz ones.
    """
    return replace(helmholtz_decompose(f), kind="symplectic")


# -- projection property check -------------------------------------------------


@dataclass(frozen=True)
class ProjectionPropertyReport:
    norm_plain: float
    norm_weighted: float
    tol: float

    @property
    def consistent(self) -> bool:
        return (self.norm_plain <= self.tol) == (self.norm_weighted <= self.tol)


def projection_property_check(f, psi, tol) -> ProjectionPropertyReport:
    """Check that Pr(f) and Pr(conj(psi) f) vanish together, for nonvanishing psi.

    psi is certified nonvanishing on the closed disk first, from
    8 max(deg psi, 16) samples of the circle, doubled while the sampling
    margin is not positive (series.disk_min_modulus).  A zero violates the
    hypothesis and raises, and so does a margin that stays at or below 0.
    """
    f = as_field(f)
    psi = series.as_series(psi)
    samples = boundary_points(series.certificate_samples(psi.degree))
    _, why = series.disk_min_modulus(psi, evaluate_grid(psi, samples))
    if why:
        raise NonvanishingCheckError(f"psi {why}")
    weighted = convolve(conjugate(psi.to_field()), f)
    p_plain = norm(project_con_rule(f).to_field())
    p_weighted = norm(project_con_rule(weighted).to_field())
    return ProjectionPropertyReport(norm_plain=p_plain, norm_weighted=p_weighted, tol=tol)
