"""Laurent-coefficient calculus on the annulus r_in <= |z| <= 1.

Laurent fields share the coefficient table of the disk fields, with the
index offset -band_limit, so the element-wise operations and the pairing
of ``series`` serve them unchanged.  A field's band is the largest |power|
of its terms, whatever band its input declared, so no pairing, evaluation
or solve reaches past the powers the field holds.  The Dirichlet Poisson
solution carries powers of ln(z zbar) for the z^-1 modes, one level each
on the leading level axis of the table, and the two-circle boundary
matching solves every angular mode at once in closed form.  One such solve
gives both potentials of ``disk.conformal_split`` on the annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import CoefficientField, _columns, _frozen, _levels, add, angular_sums, subtract


class NonConformalInputError(ValueError):
    """Input field has nonzero antiholomorphic content."""


class LaurentField(CoefficientField):
    """Polynomial in z, zbar, 1/z, 1/zbar on the least band that holds its terms.

    ``table[i, j]`` is the coefficient of z^(i-band_limit) zbar^(j-band_limit),
    with ``band_limit`` the largest |power| of a term, and ``table[l, i, j]``
    that of ln(z zbar)^l times it on a table with levels.  ``terms`` is a
    {(m, n): c} mapping or a tuple (m, n, c) of index and coefficient arrays,
    led by the level array l for a table with levels, whose indices a
    declared band_limit bounds before any allocation; or a 2-D or 3-D complex
    array, a table on the band ``band_limit`` (then required).  Operations
    build their results through ``_like``.
    """

    __slots__ = ("band_limit", "r_in")

    def __init__(self, terms, r_in, band_limit=None):
        if not 0.0 < r_in < 1.0:
            raise ValueError("r_in must lie strictly between 0 and 1")
        self.r_in = float(r_in)
        if not isinstance(terms, np.ndarray):
            *level, m, n, c = terms if isinstance(terms, tuple) else _columns(terms or {})
            terms = *level, m, n, c = tuple(a[c != 0] for a in (*level, m, n, c))
            powers = np.abs(np.concatenate((m, n))).astype(np.uint64)  # |int64 min| fits here
            band = int(powers.max(initial=0))
            if band_limit is not None and band > band_limit:  # before any table is allocated
                raise ValueError(f"index outside band limit {band_limit}")
            band_limit = band
        super().__init__(terms, -band_limit, None)
        if max(self.table.shape[-2:]) > 2 * band_limit + 1:
            raise ValueError(f"index outside band limit {band_limit}")
        self._narrow(self.table, int(band_limit))

    def _like(self, table, band_limit):
        """As BivariateField._like, for a table on a band the operation proves, on self's annulus."""
        f = object.__new__(LaurentField)
        f._narrow(_frozen(table), int(band_limit))
        f.r_in = self.r_in
        return f

    def _narrow(self, t, b):
        """Store table t of band b on the least band of its terms (an edge term may cancel)."""
        if max(t.shape[-2:]) < 2 * b + 1 and not (t[..., :1, :].any() or t[..., :1].any()):  # no edge term
            least = int(np.abs(np.concatenate(np.nonzero(t)[-2:]) - b).max(initial=0))
            t, b = t[..., b - least :, b - least :], least
        self.table, self.band_limit = t, b

    @property
    def offset(self):
        return -self.band_limit

    @property
    def _bound(self):
        return self.band_limit


def laurent_monomial(m, n, c, r_in):
    return LaurentField({(m, n): c}, r_in=r_in)


# -- conformal classification ---------------------------------------------------


@dataclass(frozen=True)
class AnnulusClassification:
    """Coordinates of a conformal annulus field on the 1/z and i/z directions."""

    a4_coeff: float
    a5_coeff: float
    a6_part: LaurentField


def annulus_classify(h: LaurentField) -> AnnulusClassification:
    """Split the z^-1 coefficient p + iq into the i/z (a4) and 1/z (a5) coordinates.

    The remaining modes form the a6 part.  Input must be conformal (no zbar
    content).
    """
    bad = h.antiholomorphic_norm()
    if bad > 0.0:
        raise NonConformalInputError(
            f"field has antiholomorphic coefficient mass {bad:.3e}"
        )
    c = h.coefficient(-1, 0)
    return AnnulusClassification(
        a4_coeff=c.imag,
        a5_coeff=c.real,
        a6_part=subtract(h.holomorphic_part(), laurent_monomial(-1, 0, c, r_in=h.r_in)),
    )


# -- the Dirichlet-Poisson solve ------------------------------------------------


def boundary_trace(f: LaurentField, radius):
    """Angular-mode coefficients of the restriction of f to |z| = radius, k = -2B..2B at
    k + 2B for the band B of f: the ``angular_sums`` of its level sum weighted by
    ln(radius^2)^l radius^(m+n), over the full square of side 2B + 1."""
    B, (_, rows, cols) = f.band_limit, _levels(f.table).shape
    t = np.pad(_levels(f.table), ((0, 0), (0, 2 * B + 1 - rows), (0, 2 * B + 1 - cols)))
    powers = np.arange(-B, B + 1)
    logs = (2.0 * math.log(radius)) ** np.arange(len(t))
    return angular_sums(np.tensordot(logs, t, 1) * float(radius) ** np.add.outer(powers, powers))


@np.errstate(over="raise")
def poisson_annulus(rhs: LaurentField) -> LaurentField:
    """Solve Laplace(F) = rhs with F = 0 on both boundary circles, exactly.

    Particular solutions lift indices by (1,1); the m = -1 / n = -1 cases
    pick up a ln(z zbar) factor, so F has up to three levels.  Boundary
    values are matched for every angular mode at once, in closed form, with
    the harmonic pairs {z^k, zbar^-k} (and {1, ln(z zbar)} for the
    rotationally symmetric mode).  Both steps are complex-linear: any
    complex right-hand side is solved as it stands.
    """
    r_in, B = rhs.r_in, rhs.band_limit + 1
    # z^m zbar^n -> z^(m+1) zbar^(n+1) / (4 (m+1)(n+1)); a zero lifted power
    # takes the factor ln(z zbar) instead, and both zero take ln^2 / 8
    m1, n1 = np.indices(rhs.table.shape) + 1 + rhs.offset
    logs = (m1 == 0).astype(int) + (n1 == 0)
    den = 4.0 * np.where(m1 == 0, 1, m1) * np.where(n1 == 0, 1, n1) * np.where(logs == 2, 2, 1)
    lifted = np.zeros((3, 2 * B + 1, 2 * B + 1), dtype=complex)
    lifted[logs, m1 + B, n1 + B] = rhs.table / den
    part = rhs._like(lifted, B)
    t1, t2 = boundary_trace(part, 1.0), boundary_trace(part, r_in)
    # mode k != 0: a on z^k (k > 0) or zbar^-k (k < 0) and b on the other
    # member of the pair, with traces r^|k| and r^-|k| on |z| = r
    c = len(t1) // 2
    k = np.arange(-c, c + 1)
    rk = r_in ** np.abs(k)
    b = (t1 * rk - t2) / np.where(k == 0, 1.0, r_in ** -np.abs(k) - rk)
    a = -t1 - b
    correction = np.zeros((2, 2 * c + 1, 2 * c + 1), dtype=complex)
    correction[0, :, c] = np.where(k > 0, a, b)
    correction[0, c, ::-1] = np.where(k > 0, b, a)
    # mode 0: basis {1, ln(z zbar)} with traces {1, 2 ln r}
    correction[:, c, c] = -t1[c], (t1[c] - t2[c]) / (2.0 * math.log(r_in))
    return add(part, rhs._like(correction, c))
