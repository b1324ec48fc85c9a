"""Projections, adjoint derivative, and orthogonal decompositions on the unit disk.

Three independent routes compute the orthogonal projection onto conformal
(holomorphic) fields: a closed-form monomial rule, a reproducing-kernel
quadrature, and a Gram normal-equation solve.  One coefficient-exact
Dirichlet-Poisson solve gives the complex potential Phi = F + iG; its parts
are the Lagrange multiplier pair (F, G), and 2 d_z Phi spans the complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import series
from .series import (
    BivariateField,
    HolomorphicSeries,
    add,
    angular_sums,
    as_field,
    boundary_max,
    coefficient_norm,
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
    return HolomorphicSeries(angular_sums(t * ((m - n + 1) / (m + 1)))[t.shape[1] - 1 :])


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
    return BivariateField(out, max_degree=rhs.max_degree + 2)


def grad_bar(potential) -> BivariateField:
    """Reflection gradient F_x - i F_y identified with 2 d_z F (F real)."""
    return scale(wirtinger(as_field(potential), "d_z"), 2)


def sgrad_bar(potential) -> BivariateField:
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

    def validate(self):
        """Both potentials real and zero on the boundary, to 1e-10 of their size."""
        tol = 1e-10 * max(coefficient_norm(self.F), coefficient_norm(self.G), 1e-30)
        return (self.F.is_real(tol=tol) and self.G.is_real(tol=tol)
                and self.boundary_trace_max() <= tol)


@dataclass(frozen=True)
class DecompositionResult:
    kind: str
    multipliers: MultiplierPair
    residual_norm: float
    orthogonality: tuple
    conformal: HolomorphicSeries | None = None
    divergence_free: BivariateField | None = None
    closed_form_defect: float = dataclass_field(default=0.0)

    def parts(self):
        """Named component fields, in reconstruction order."""
        if self.kind == "conformal":
            return [
                ("conformal", self.conformal.to_field()),
                ("grad_bar_F", grad_bar(self.multipliers.F)),
                ("sgrad_bar_G", sgrad_bar(self.multipliers.G)),
            ]
        return [
            ("divergence_free", self.divergence_free),
            ("gradient", scale(wirtinger(self.multipliers.F, "d_zbar"), 2)),
        ]

    def reconstruction(self):
        total = series.zero_field()
        for _, part in self.parts():
            total = add(total, part)
        return total


def _orthogonality_matrix(parts):
    """Re <<p, q>> over the parts, one pairing per unordered pair: exactly symmetric."""
    n = len(parts)
    re = {(i, j): inner_product(parts[i], parts[j]).real for i in range(n) for j in range(i, n)}
    return tuple(tuple(re[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


def conformal_split(f):
    """(h, F, G, grad_bar(F), sgrad_bar(G), residue) with f = h + grad_bar(F) + sgrad_bar(G).

    One Dirichlet solve of Laplace(Phi) = 2 d_zbar f gives Phi = F + iG, and
    grad_bar(F) + sgrad_bar(G) = 2 d_z Phi makes f - grad_bar(F) - sgrad_bar(G)
    holomorphic in exact arithmetic; h is its z-power part.
    """
    f = as_field(f)
    residue = cr_residual(f)
    potential = poisson_disk(residue)
    F, G = real_part(potential), imag_part(potential)
    gF = grad_bar(F)
    sG = sgrad_bar(G)
    h = HolomorphicSeries(subtract(subtract(f, gF), sG).table[:, :1])
    return h, F, G, gF, sG, residue


def conformal_decompose(f) -> DecompositionResult:
    """Split f into conformal part + reflection gradients of Dirichlet potentials.

    The split is `conformal_split`; correctness is enforced by the
    reconstruction residual rather than by trusting the derivation.
    """
    f = as_field(f)
    h, F, G, gF, sG, _ = conformal_split(f)
    recon = add(add(h.to_field(), gF), sG)
    residual_norm = norm(subtract(f, recon))
    parts = [h.to_field(), gF, sG]
    rule = project_con_rule(f)
    defect = norm(subtract(h.to_field(), rule.to_field()))
    return DecompositionResult(
        kind="conformal",
        conformal=h,
        multipliers=MultiplierPair(F, G),
        residual_norm=residual_norm,
        orthogonality=_orthogonality_matrix(parts),
        closed_form_defect=defect,
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
    return DecompositionResult(
        kind="helmholtz",
        multipliers=MultiplierPair(F, series.zero_field()),
        residual_norm=norm(real_part(div_curl(vol))),
        orthogonality=_orthogonality_matrix([vol, gradient]),
        divergence_free=vol,
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
