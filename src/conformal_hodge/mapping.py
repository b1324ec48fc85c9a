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
    convolve,
    inner_product,
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
    edges of the closed polygon through them that share no vertex.

    Called with the base count of series.certificate_samples only: the
    n x n mask would reach 1 GiB at the largest count disk_min_modulus
    doubles to.
    """
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


@functools.lru_cache(maxsize=8)
def _certified(key):
    """(phi, phi', operator caches) of the map whose coefficients have the bytes
    key, once its certificate passes; raises EmbeddingError otherwise.

    Every certified ConformalMap of the same coefficient bytes shares these,
    so phi's power tables, the basis matrices and the Gram factors are built
    once while the map is among the last 8 certified in the process.  Each
    is a pure function of the coefficients; a failure is not cached.
    """
    m = ConformalMap(HolomorphicSeries(np.frombuffer(key, dtype=complex)), validate=False)
    if m.min_deriv <= 0.0:
        raise EmbeddingError(m.deriv_failure)
    m.check_boundary_injectivity()
    return m.phi, m.phi_prime, m._caches


class ConformalMap:
    """Holomorphic embedding of the unit disk given by a truncated series.

    A map built with validate=True is certified and shares phi and its
    caches with every certified map of the same coefficient bytes
    (_certified); one built with validate=False keeps its own.
    """

    def __init__(self, phi, validate=True):
        self._warned = set()  # the Gram keys whose condition this object has reported
        if validate:
            self.phi, self.phi_prime, self._caches = _certified(as_series(phi).coeffs.tobytes())
            return
        self.phi = as_series(phi)
        self.phi_prime = self.phi.derivative()
        self._caches = {}

    def _samples(self):
        return _boundary_samples(series.certificate_samples(self.phi.degree))

    def _deriv_samples(self):
        """phi' on the base circle samples (cached): the one evaluation of phi'
        that both certificates read."""
        if "deriv_samples" not in self._caches:
            self._caches["deriv_samples"] = series.evaluate_grid(self.phi_prime,
                                                                 self._samples()[0])
        return self._caches["deriv_samples"]

    def _immersion(self):
        """(min_deriv, deriv_failure), cached."""
        if "immersion" not in self._caches:
            low, why = series.disk_min_modulus(self.phi_prime, self._deriv_samples())
            self._caches["immersion"] = low, why and f"phi' {why}"
        return self._caches["immersion"]

    @property
    def min_deriv(self):
        """min |phi'| over the closed disk, or 0.0 when phi' vanishes there or
        cannot be certified not to (cached).

        Certified by series.disk_min_modulus from the base samples of phi',
        doubled while its sampling margin is not positive; deriv_failure says
        why the value is 0.0.
        """
        return self._immersion()[0]

    @property
    def deriv_failure(self):
        """Why min_deriv is 0.0: phi' vanishes on the circle, has zeros in the
        disk, or cannot be certified; None when min_deriv is positive."""
        return self._immersion()[1]

    @staticmethod
    def identity():
        return ConformalMap(HolomorphicSeries([0.0, 1.0]), validate=False)

    def check_boundary_injectivity(self):
        """Return True, or raise EmbeddingError when two edges of the sampled
        boundary polygon that share no vertex cross or touch.

        The certificate comes first, read off the cached samples of phi'
        (Noshiro-Warschawski): a map with Re(e^{i alpha} phi') > 0 on a convex
        domain is univalent.  With alpha = -arg phi'(0) that real part is
        harmonic, so its minimum over the closed disk is on the circle, at
        least its sample minimum less series.sampling_slack.  When that bound
        is not positive (or phi'(0) = 0), the polygon test runs on the base
        samples of phi: edges i and j meet when the endpoints of each lie on
        opposite sides of (or on) the line through the other.  A map
        holomorphic on the closed disk and injective on the circle is
        univalent (Darboux-Picard), but a loop finer than the sample spacing
        can escape the polygon test.
        """
        if self._univalence_margin() > 0:
            return True
        crossing = self._polygon_crossing()
        if crossing:
            raise EmbeddingError(f"boundary polygon edges {crossing[0]} and {crossing[1]} "
                                 "cross or touch")
        return True

    def _univalence_margin(self):
        """min Re(e^{i alpha} phi') on the base samples less series.sampling_slack,
        alpha = -arg phi'(0); -inf when phi'(0) = 0.  Positive certifies phi univalent."""
        b = self.phi_prime.coeffs
        if not (b.size and b[0]):
            return -math.inf
        turned = (np.conj(b[0]) / abs(b[0]) * self._deriv_samples()).real
        return turned.min() - series.sampling_slack(b, len(turned))

    def _polygon_crossing(self):
        """The first pair (i, j) of edges of the boundary polygon on the base
        samples that share no vertex and cross or touch, or None."""
        pts, nonadjacent = self._samples()
        img = series.evaluate_grid(self.phi.to_field(), pts)
        x, y = img.real, img.imag
        dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
        # side[i, k]: orientation of vertex k against edge i, a cross product
        side = np.outer(dx, y) - np.outer(dy, x) - (dx * y - dy * x)[:, None]
        straddle = side * np.roll(side, -1, axis=1) <= 0.0
        meet = straddle & straddle.T & nonadjacent
        return tuple(np.argwhere(meet)[0]) if np.any(meet) else None

    # -- cached series helpers ------------------------------------------------

    def phi_prime_operator(self, size):
        """Lower-triangular Toeplitz matrix T of phi' (read-only, gathered per call).

        T @ v is the coefficient vector of phi' v cut at degree size - 1, for
        a coefficient vector v of length size.  T[i, j] is coefficient i - j
        of phi', gathered through the shared index array of _toeplitz_gaps.
        """
        d = self.phi_prime.to_array(size + 1)
        d[size] = 0  # the entry that every negative gap reads
        T = d[_toeplitz_gaps(size)]
        T.flags.writeable = False
        return T

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
        when G overflows, which a finite but huge phi can cause.  Warns
        GramConditionWarning when w[-1] / w[0] exceeds GRAM_CONDITION_LIMIT,
        once per map object and (degree, max_degree), although certified maps
        of the same coefficients share the factor.
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
            self._caches[key] = eig, (w[-1] / w[0] if w[0] > 0 else math.inf)
        eig, cond = self._caches[key]
        if cond > GRAM_CONDITION_LIMIT and key not in self._warned:
            self._warned.add(key)
            warnings.warn(
                f"weighted Gram system condition estimate {cond:.3e} exceeds "
                f"{GRAM_CONDITION_LIMIT:.0e}",
                GramConditionWarning,
                stacklevel=series._caller_stacklevel(),
            )
        return eig

    def natural_cap(self, degree):
        """Truncation degree that keeps phi^degree * phi' exact."""
        return degree * max(self.phi.degree, 1) + self.phi_prime.degree

    def compose_with(self, xi, max_degree=None) -> HolomorphicSeries:
        """The pullback xi o phi of a series on the image domain, cut at max_degree.

        The default cap natural_cap(xi.degree) keeps the composition exact.
        """
        xi = as_series(xi)
        if max_degree is None:
            max_degree = self.natural_cap(xi.degree)
        return xi.compose(self.phi, max_degree)


def map_inner_product(mapping: ConformalMap, f, g) -> complex:
    """Weighted pairing <<phi' f, phi' g>> for fields given in pulled-back coordinates.

    When g is f (a norm or an energy), the product phi' f is formed once.
    """
    dphi = mapping.phi_prime.to_field()
    wf = convolve(dphi, f)
    return inner_product(wf, wf if g is f else convolve(dphi, g))


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
    # <<wf, phi' phi^j>> is the sum over k >= 0 against basis coefficient k
    moments = series.angular_sums(wf * series.pair_constants(len(wf))[:, None])
    moments = moments[wf.shape[1] - 1 :]
    width = min(len(moments), B.shape[1])
    rhs = B[:, :width].conj() @ moments[:width]
    return HolomorphicSeries._like(_solve_gram(mapping, rhs, degree, max_degree))


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
    xi_pull = mapping.compose_with(xi, max_degree)
    A = HolomorphicSeries([0.0, 0.0, 1.0]) * mapping.phi_prime * xi_pull
    P = mapping.phi.power_table(degree, max_degree)
    a = A.derivative().to_array(P.shape[1])
    rhs = P.conj() @ (a * series.pair_constants(P.shape[1]))
    return HolomorphicSeries._like(_solve_gram(mapping, rhs, degree, max_degree))
