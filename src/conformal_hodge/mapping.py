"""Conformally mapped disks: weighted inner products, projection, adjoint.

A ConformalMap is a holomorphic series phi: D -> U with nonvanishing
derivative.  The inverse is never represented as a series: every mapped
computation pulls back to the disk through phi (change of variables).
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import series
from .series import (
    HolomorphicSeries,
    as_field,
    as_series,
    inner_product,
    multiply,
)
from .quadrature import boundary_points


class EmbeddingError(ValueError):
    """The candidate map fails the immersion or boundary-injectivity checks."""


class GramConditionWarning(UserWarning):
    """The weighted Gram system is ill-conditioned; results may lose accuracy."""


GRAM_CONDITION_LIMIT = 1e12


@functools.cache
def _boundary_samples(n):
    """n equispaced points of the unit circle and the mask of the pairs of
    edges of the closed polygon through them that share no vertex."""
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    return boundary_points(n), np.minimum(gap, n - gap) > 1


@functools.lru_cache(maxsize=8)
def _toeplitz_gaps(size):
    """Index array gap[i, j] = i - j on and below the diagonal, size above it (read-only)."""
    k = np.arange(size)
    gap = k[:, None] - k[None, :]
    gap[gap < 0] = size
    gap.flags.writeable = False
    return gap


class ConformalMap:
    """Holomorphic embedding of the unit disk given by a truncated series."""

    def __init__(self, phi, validate=True):
        self.phi = as_series(phi)
        self.phi_prime = self.phi.derivative()
        self._caches = {}
        if validate:
            if self.min_deriv <= 0.0:
                raise EmbeddingError(self._caches["deriv_zeros"])
            self.check_boundary_injectivity()

    def _samples(self):
        return _boundary_samples(series.certificate_samples(self.phi.degree))

    @property
    def min_deriv(self):
        """min |phi'| over the closed disk, or 0.0 when phi' vanishes there (cached).

        Certified from the boundary samples by series.disk_min_modulus.
        """
        if "min_deriv" not in self._caches:
            low, why = series.disk_min_modulus(self.phi_prime, self._samples()[0])
            self._caches["deriv_zeros"] = why and f"phi' {why}"
            self._caches["min_deriv"] = low
        return self._caches["min_deriv"]

    @staticmethod
    def identity():
        return ConformalMap(HolomorphicSeries([0.0, 1.0]), validate=False)

    def check_boundary_injectivity(self):
        """Raise EmbeddingError when two edges of the sampled boundary polygon
        that share no vertex cross or touch.

        Edges i and j meet when the endpoints of each lie on opposite sides
        of (or on) the line through the other.  A map holomorphic on the
        closed disk and injective on the circle is univalent (Darboux-Picard).
        """
        pts, nonadjacent = self._samples()
        img = series.evaluate_grid(self.phi.to_field(), pts)
        x, y = img.real, img.imag
        dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
        # side[i, k]: orientation of vertex k against edge i, a cross product
        side = np.outer(dx, y) - np.outer(dy, x) - (dx * y - dy * x)[:, None]
        straddle = side * np.roll(side, -1, axis=1) <= 0.0
        meet = straddle & straddle.T & nonadjacent
        if np.any(meet):
            i, j = np.argwhere(meet)[0]
            raise EmbeddingError(f"boundary polygon edges {i} and {j} cross or touch")
        return True

    # -- cached series helpers ------------------------------------------------

    def phi_prime_operator(self, size):
        """Lower-triangular Toeplitz matrix T of phi' (cached, read-only).

        T @ v is the coefficient vector of phi' v cut at degree size - 1, for
        a coefficient vector v of length size.  T[i, j] is coefficient i - j
        of phi', gathered through the shared index array of _toeplitz_gaps.
        """
        key = ("phi_prime", size)
        if key not in self._caches:
            d = self.phi_prime.to_array(size + 1)
            d[size] = 0  # the entry that every negative gap reads
            T = d[_toeplitz_gaps(size)]
            T.flags.writeable = False
            self._caches[key] = T
        return self._caches[key]

    def basis_matrix(self, degree, max_degree):
        """Rows are the coefficient vectors of phi' phi^k, the pulled-back monomial frame
        (cached, read-only)."""
        key = ("basis", degree, max_degree)
        if key not in self._caches:
            powers = self.phi.power_table(degree, max_degree)
            B = powers @ self.phi_prime_operator(max_degree + 1).T
            B.flags.writeable = False
            self._caches[key] = B
        return self._caches[key]

    def gram(self, degree, max_degree):
        """Eigendecomposition (w, V) of the Hermitian Gram matrix (cached, read-only).

        G[j,k] = <<phi' phi^k, phi' phi^j>> on the disk equals V diag(w) V^H,
        with the eigenvalues w in ascending order.  Raises FloatingPointError
        when G overflows, which a finite but huge phi can cause, and warns
        GramConditionWarning once per factorisation when w[-1] / w[0] exceeds
        GRAM_CONDITION_LIMIT.
        """
        key = ("gram", degree, max_degree)
        if key not in self._caches:
            B = self.basis_matrix(degree, max_degree)
            G = ((B * series.pair_constants(B.shape[1])) @ B.conj().T).T
            if not np.isfinite(G).all():
                raise FloatingPointError(f"the weighted Gram matrix of degree {degree} "
                                         "is not finite")
            eig = np.linalg.eigh(G)
            for a in eig:
                a.flags.writeable = False
            w = eig[0]
            cond = w[-1] / w[0] if w[0] > 0 else math.inf
            if cond > GRAM_CONDITION_LIMIT:
                warnings.warn(
                    f"weighted Gram system condition estimate {cond:.3e} exceeds "
                    f"{GRAM_CONDITION_LIMIT:.0e}",
                    GramConditionWarning,
                    stacklevel=4,  # the caller of the operator that solves with G
                )
            self._caches[key] = eig
        return self._caches[key]

    def natural_cap(self, degree):
        """Truncation degree that keeps phi^degree * phi' exact."""
        return degree * max(self.phi.degree, 1) + self.phi_prime.degree

    def compose_with(self, xi: HolomorphicSeries, max_degree):
        """xi o phi truncated at max_degree."""
        return xi.compose(self.phi, max_degree)


def map_inner_product(mapping: ConformalMap, f, g) -> complex:
    """Weighted pairing <<phi' f, phi' g>> for fields given in pulled-back coordinates.

    When g is f (a norm or an energy), the product phi' f is formed once.
    """
    same = g is f
    f = as_field(f)
    dphi = mapping.phi_prime.to_field()
    wf = multiply(dphi, f, max_degree=f.max_degree + dphi.max_degree)
    if same:
        return inner_product(wf, wf)
    g = as_field(g)
    return inner_product(wf, multiply(dphi, g, max_degree=g.max_degree + dphi.max_degree))


def map_norm(mapping: ConformalMap, f) -> float:
    return math.sqrt(max(map_inner_product(mapping, f, f).real, 0.0))


def _solve_gram(mapping, rhs, degree, max_degree):
    w, V = mapping.gram(degree, max_degree)
    # w scales the rows of V^H rhs, whether rhs is one vector or a matrix of columns
    return V @ ((V.conj().T @ rhs) / (w if rhs.ndim == 1 else w[:, None]))


def project_con_mapped(mapping: ConformalMap, f, degree, max_degree=None) -> HolomorphicSeries:
    """Orthogonal projection onto the mapped monomial span, in image coordinates.

    Solves the normal equations of the weighted inner product; the residual
    f minus the pulled-back projection is orthogonal to every basis pullback
    up to `degree`.
    """
    f = as_field(f)
    if max_degree is None:
        max_degree = max(mapping.natural_cap(degree), f.max_degree)
    # the rows of phi' f: each column of f's table times phi', exact
    rows = len(f.table)
    wf = mapping.phi_prime_operator(rows + mapping.phi_prime.degree)[:, :rows] @ f.table
    B = mapping.basis_matrix(degree, max_degree)
    # <<wf, z^k>> collects the terms of angular index k = m - n, so
    # <<wf, phi' phi^j>> is the sum over k against basis coefficient k
    moments = series.angular_sums(wf * series.pair_constants(len(wf))[:, None])
    width = min(len(moments), B.shape[1])
    rhs = B[:, :width].conj() @ moments[:width]
    coeffs = _solve_gram(mapping, rhs, degree, max_degree)
    return HolomorphicSeries(coeffs)


def pullback(mapping: ConformalMap, xi, max_degree=None) -> HolomorphicSeries:
    """Compose a series on the image domain with phi (coordinates back on the disk)."""
    xi = as_series(xi)
    if max_degree is None:
        max_degree = mapping.natural_cap(xi.degree)
    return mapping.compose_with(xi, max_degree)


def adjoint_dz_mapped(mapping: ConformalMap, xi, degree, max_degree=None) -> HolomorphicSeries:
    """Adjoint of d/dz on the image domain, computed entirely on the disk.

    With A = z^2 phi' (xi o phi), the weighted right-hand sides reduce to the
    unweighted disk pairings <<A', phi^j>> (the 1/conj(phi') factor cancels
    against the weight), so only the Gram solve is approximate.
    """
    xi = as_series(xi)
    if max_degree is None:
        max_degree = max(
            mapping.natural_cap(degree), mapping.natural_cap(xi.degree) + 2
        )
    xi_pull = pullback(mapping, xi, max_degree)
    A = (HolomorphicSeries([0.0, 0.0, 1.0]) * mapping.phi_prime * xi_pull).truncated(
        max_degree + 1, warn=False
    )
    P = mapping.phi.power_table(degree, max_degree)
    a = A.derivative().to_array(P.shape[1])
    rhs = P.conj() @ (a * series.pair_constants(P.shape[1]))
    coeffs = _solve_gram(mapping, rhs, degree, max_degree)
    return HolomorphicSeries(coeffs)
