"""Fourier fields on the flat torus and their conformal projection.

On the torus the conformal fields reduce to the two rigid translations, so
the projection just extracts the Fourier means of both components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TorusField:
    """Vector field on [0,2pi)^2 given by Fourier coefficients of its two components.

    Coefficient arrays have shape (2N+1, 2N+1) with index offset N, so
    entry [j+N, k+N] multiplies exp(i(j theta + k phi)).  Components are
    real-valued, i.e. the arrays are Hermitian-symmetric.
    """

    __slots__ = ("theta_coeffs", "phi_coeffs", "band_limit")

    def __init__(self, theta_coeffs, phi_coeffs):
        theta_coeffs = np.asarray(theta_coeffs, dtype=complex)
        phi_coeffs = np.asarray(phi_coeffs, dtype=complex)
        if theta_coeffs.shape != phi_coeffs.shape or theta_coeffs.ndim != 2:
            raise ValueError("component coefficient arrays must share a 2-D shape")
        side = theta_coeffs.shape[0]
        if side % 2 != 1 or theta_coeffs.shape[1] != side:
            raise ValueError("coefficient arrays must be square with odd side 2N+1")
        self.band_limit = side // 2
        for name, arr in (("theta", theta_coeffs), ("phi", phi_coeffs)):
            defect = np.max(np.abs(arr - np.conj(arr[::-1, ::-1])))
            if defect > 1e-12:
                raise ValueError(
                    f"{name} component is not real-valued "
                    f"(Hermitian defect {defect:.3e})"
                )
        self.theta_coeffs = theta_coeffs
        self.phi_coeffs = phi_coeffs

    @staticmethod
    def from_terms(theta_terms, phi_terms, band_limit):
        """Build from {(j, k): coefficient} maps, symmetrising for realness."""
        side = 2 * band_limit + 1
        th = np.zeros((side, side), dtype=complex)
        ph = np.zeros((side, side), dtype=complex)
        for arr, terms in ((th, theta_terms), (ph, phi_terms)):
            for (j, k), c in terms.items():
                arr[j + band_limit, k + band_limit] += complex(c) / 2
                arr[-j + band_limit, -k + band_limit] += complex(c).conjugate() / 2
        return TorusField(th, ph)

    def mean(self):
        n = self.band_limit
        return (
            self.theta_coeffs[n, n].real,
            self.phi_coeffs[n, n].real,
        )

    def without_mean(self):
        th = self.theta_coeffs.copy()
        ph = self.phi_coeffs.copy()
        n = self.band_limit
        th[n, n] = 0
        ph[n, n] = 0
        return TorusField(th, ph)  # the mean-free part of a real field is real

    def inner(self, other) -> float:
        """Real L2 pairing; Parseval over both components, cell area (2 pi)^2."""
        if other.band_limit != self.band_limit:
            raise ValueError("band limits differ")
        s = np.sum(self.theta_coeffs * np.conj(other.theta_coeffs))
        s += np.sum(self.phi_coeffs * np.conj(other.phi_coeffs))
        return float(s.real) * (2 * math.pi) ** 2

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    def evaluate(self, theta, phi):
        n = self.band_limit
        js = np.arange(-n, n + 1)
        e_th = np.exp(1j * js * theta)
        e_ph = np.exp(1j * js * phi)
        u = np.real(e_th @ self.theta_coeffs @ e_ph)
        v = np.real(e_th @ self.phi_coeffs @ e_ph)
        return float(u), float(v)


@dataclass(frozen=True)
class TorusProjection:
    c_theta: float
    c_phi: float
    residual: TorusField


def torus_project_con(f: TorusField) -> TorusProjection:
    """Project onto the span of the two translation fields (Fourier means)."""
    c_theta, c_phi = f.mean()
    return TorusProjection(c_theta=c_theta, c_phi=c_phi, residual=f.without_mean())
