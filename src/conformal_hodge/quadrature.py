"""Polar quadrature and sample grids for the unit disk and annulus."""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np


class QuadratureSpec(NamedTuple):
    """Gauss-Legendre radial nodes x uniform (trapezoid) angular nodes."""

    n_radial: int = 64
    n_angular: int = 128


class QuadratureResolutionWarning(UserWarning):
    """Requested recovery degree exceeds what the quadrature resolves."""


def polar_nodes(spec: QuadratureSpec):
    """Nodes z and area weights w with sum w_i f(z_i) ~ integral of f dA."""
    x, wx = np.polynomial.legendre.leggauss(spec.n_radial)
    r = (x + 1) / 2
    wr = wx / 2
    theta = 2 * math.pi * np.arange(spec.n_angular) / spec.n_angular
    wt = 2 * math.pi / spec.n_angular
    z = r[:, None] * np.exp(1j * theta)[None, :]
    w = (wr * r)[:, None] * np.full(spec.n_angular, wt)[None, :]
    return z.ravel(), w.ravel()


def boundary_points(samples):
    theta = 2 * math.pi * np.arange(samples) / samples
    return np.exp(1j * theta)


def check_resolution(spec: QuadratureSpec, field_degree: int, out_degree: int):
    """Warn when moment recovery up to out_degree is not exact for the quadrature.

    Angular exactness needs n_angular > field_degree + out_degree (else modes
    alias); radial Gauss exactness needs 2*n_radial - 1 >= field_degree +
    out_degree + 1.
    """
    if (spec.n_angular <= field_degree + out_degree
            or 2 * spec.n_radial - 1 < field_degree + out_degree + 1):
        warnings.warn(
            f"quadrature {spec.n_radial}x{spec.n_angular} does not exactly "
            f"resolve degree {out_degree} recovery from a degree-{field_degree} "
            "field; results are approximate",
            QuadratureResolutionWarning,
            stacklevel=3,
        )
