"""Differential forms on flat planar charts and the subspace membership test.

Components are coefficient fields, polynomial on the disk and Laurent on the
annulus, and the ``series`` operations serve both.  Orientation fixes
star(dx) = dy, star(dy) = -dx, and on 1-forms the co-differential is
delta = star d star, so that for a vector field u + iv the reflected image
u dx - v dy has delta = u_x - v_y and d = -(v_x + u_y) dx^dy, the real and
minus the imaginary part of 2 d_zbar f; the membership test reads the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus import annulus_classify, laurent_monomial
from .disk import conformal_split
from .quadrature import boundary_points
from .series import (
    add,
    as_field,
    coefficient_norm,
    evaluate_grid,
    imag_part,
    inner_product,
    norm,
    real_part,
    scale,
    subtract,
    trace_samples,
    wirtinger,
)


def d_x(f):
    """Partial derivative in x: d_z + d_zbar."""
    return add(wirtinger(f, "d_z"), wirtinger(f, "d_zbar"))


def d_y(f):
    """Partial derivative in y: i (d_z - d_zbar)."""
    return scale(subtract(wirtinger(f, "d_z"), wirtinger(f, "d_zbar")), 1j)


def _require_real(name, f):
    if not f.is_real(tol=1e-9 * max(coefficient_norm(f), 1.0)):
        raise ValueError(f"{name} component of a form must be real-valued")


# -- form types -----------------------------------------------------------------


@dataclass(frozen=True)
class ZeroForm:
    value: object

    def __post_init__(self):
        _require_real("0-form", self.value)


@dataclass(frozen=True)
class OneForm:
    """alpha = u dx + v dy with real component fields."""

    u_dx: object
    v_dy: object

    def __post_init__(self):
        _require_real("u dx", self.u_dx)
        _require_real("v dy", self.v_dy)


@dataclass(frozen=True)
class TwoForm:
    density: object  # w in w dx^dy

    def __post_init__(self):
        _require_real("2-form", self.density)


def star(form):
    """Hodge star: star(1) = dx^dy, star(dx) = dy, star(dy) = -dx, star(dx^dy) = 1."""
    if isinstance(form, ZeroForm):
        return TwoForm(form.value)
    if isinstance(form, OneForm):
        return OneForm(u_dx=scale(form.v_dy, -1), v_dy=form.u_dx)
    if isinstance(form, TwoForm):
        return ZeroForm(form.density)
    raise TypeError(f"not a form: {type(form).__name__}")


def exterior_derivative(form):
    if isinstance(form, ZeroForm):
        return OneForm(u_dx=d_x(form.value), v_dy=d_y(form.value))
    if isinstance(form, OneForm):
        return TwoForm(subtract(d_x(form.v_dy), d_y(form.u_dx)))
    if isinstance(form, TwoForm):
        raise ValueError("no 3-forms on a 2-manifold")
    raise TypeError(f"not a form: {type(form).__name__}")


def codifferential(form):
    """delta = star d star on 1- and 2-forms (positive sign in two dimensions)."""
    if isinstance(form, OneForm):
        return ZeroForm(add(d_x(form.u_dx), d_y(form.v_dy)))
    if isinstance(form, TwoForm):
        w = form.density
        return OneForm(u_dx=scale(d_y(w), -1), v_dy=d_x(w))
    if isinstance(form, ZeroForm):
        raise ValueError("the co-differential of a 0-form vanishes identically")
    raise TypeError(f"not a form: {type(form).__name__}")


def form_inner(alpha: OneForm, beta: OneForm) -> float:
    """L2 pairing of 1-forms: integral of (u1 u2 + v1 v2)."""
    return (inner_product(alpha.u_dx, beta.u_dx).real
            + inner_product(alpha.v_dy, beta.v_dy).real)


# -- reflected flat / sharp maps -------------------------------------------------


def flat_map(f) -> OneForm:
    """Reflected metric image of the field u + iv: the 1-form u dx - v dy.

    This is the isometry under which conformal fields correspond exactly to
    the harmonic (closed and co-closed) 1-forms.
    """
    f = as_field(f)
    return OneForm(u_dx=real_part(f), v_dy=scale(imag_part(f), -1))


def sharp_map(alpha: OneForm):
    """Inverse of flat_map: u dx + v dy -> the field u - iv."""
    return add(alpha.u_dx, scale(alpha.v_dy, -1j))


# -- boundary traces --------------------------------------------------------------


def boundary_traces(f, radius):
    """(max tangential, max normal) component of u dx - v dy on ``trace_samples(f)``
    samples of |z| = radius: -Im(f n) and Re(f n) for f = u + iv and the unit normal n."""
    normal = boundary_points(trace_samples(f))
    fn = evaluate_grid(f, radius * normal) * normal
    return float(np.max(np.abs(fn.imag))), float(np.max(np.abs(fn.real)))


# -- membership classification ----------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    labels: tuple
    norms: dict
    inconclusive: tuple
    boundary_tangential_max: float
    boundary_normal_max: float
    closedness_defect: float
    coclosedness_defect: float
    coordinates: dict


def _labels_from_norms(norms, total, tol):
    thr = tol * max(total, 1e-300)
    labels, inconclusive = [], []
    for name in sorted(norms):
        n = norms[name]
        if n > 3 * thr:
            labels.append(name)
        elif n > thr / 3:
            inconclusive.append(name)
    return tuple(labels), tuple(inconclusive)


def hodge_membership(f, tol=1e-10) -> MembershipReport:
    """Classify a field on the disk or the annulus into the six-space catalog.

    One ``conformal_split``, on the disk or the annulus, gives the gradient /
    skew-gradient / harmonic parts of its reflected image u dx - v dy; on the
    annulus (r_in > 0) the harmonic part is further resolved against the two
    distinguished z^-1 directions.  Components whose norms land within a
    factor of 3 of the decision threshold are reported as inconclusive rather
    than guessed, and a split whose zbar and log terms do not cancel adds
    "unresolved" to them.  The (co-)closedness defect is the coefficient norm
    of the imaginary (real) part of 2 d_zbar f, and each circle is one evaluation.
    """
    norms, stray, coordinates, residue = _split(f)
    total = norm(f)
    labels, inconclusive = _labels_from_norms(norms, total, tol)
    if stray > tol * max(total, 1.0):
        inconclusive = tuple(sorted(set(inconclusive) | {"unresolved"}))
    radii = (1.0, f.r_in) if f.r_in else (1.0,)
    # np.max, not max: Python's max keeps an earlier value over a later NaN
    tangential, normal = np.max([boundary_traces(f, radius=r) for r in radii], axis=0).tolist()
    return MembershipReport(
        labels=labels,
        norms=norms,
        inconclusive=inconclusive,
        boundary_tangential_max=tangential,
        boundary_normal_max=normal,
        closedness_defect=coefficient_norm(imag_part(residue)),
        coclosedness_defect=coefficient_norm(real_part(residue)),
        coordinates=coordinates,
    )


def _split(f):
    """(norms, stray, coordinates, 2 d_zbar f) from the conformal split of f's domain."""
    h, _, _, gF, sG, stray, residue = conformal_split(f)
    norms = {"A1": norm(gF), "A2": norm(sG), "A3": 0.0, "A4": 0.0, "A5": 0.0}
    if not f.r_in:
        return {**norms, "A6": norm(h)}, stray, {}, residue
    # Under the reflected flat map 1/z is the d ln(x^2+y^2) direction
    # (normal harmonic, exact) and i/z is its star image.
    cls = annulus_classify(h)
    basis_norm = norm(laurent_monomial(-1, 0, 1.0, f.r_in))
    norms.update(A4=abs(cls.a5_coeff) * basis_norm, A5=abs(cls.a4_coeff) * basis_norm,
                 A6=norm(cls.a6_part))
    return norms, stray, {"A4": cls.a5_coeff, "A5": cls.a4_coeff}, residue
