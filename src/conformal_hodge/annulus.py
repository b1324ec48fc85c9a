"""Laurent-coefficient calculus on the annulus r_in <= |z| <= 1.

Laurent fields share the coefficient table of the disk fields, with the
index offset -band_limit, so the element-wise operations and the pairing
of ``series`` serve them unchanged.  A field's band is the largest |power|
of its terms, whatever band its input declared, so no pairing, evaluation
or solve reaches past the powers the field holds.  The Dirichlet Poisson
solution carries powers of ln(z zbar) for the z^-1 modes: a log-Laurent
field stacks one Laurent level per power on a leading level axis of one
array, and the two-circle boundary matching solves every angular mode at
once in closed form.  One such solve gives both potentials of ``conformal_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    CoefficientField,
    _columns,
    angular_sums,
    cr_residual,
    pair_tables,
    subtract,
)


class NonConformalInputError(ValueError):
    """Input field has nonzero antiholomorphic content."""


class LaurentField(CoefficientField):
    """Polynomial in z, zbar, 1/z, 1/zbar on the least band that holds its terms.

    ``table[i, j]`` is the coefficient of z^(i-band_limit) zbar^(j-band_limit),
    with ``band_limit`` the largest |power| of a term.  ``terms`` is a
    {(m, n): c} mapping or a tuple (m, n, c) of index and coefficient arrays,
    whose indices a declared band_limit bounds before any allocation; or a
    2-D complex array, a table on the band ``band_limit`` (then required).
    """

    __slots__ = ("band_limit", "r_in")

    def __init__(self, terms, r_in, band_limit=None):
        if not 0.0 < r_in < 1.0:
            raise ValueError("r_in must lie strictly between 0 and 1")
        if not isinstance(terms, np.ndarray):
            m, n, c = terms if isinstance(terms, tuple) else _columns(terms or {})
            terms = m, n, c = m[c != 0], n[c != 0], c[c != 0]
            powers = np.abs(np.concatenate((m, n))).astype(np.uint64)  # |int64 min| fits here
            band = int(powers.max(initial=0))
            if band_limit is not None and band > band_limit:  # before any table is allocated
                raise ValueError(f"index outside band limit {band_limit}")
            band_limit = band
        super().__init__(terms, -band_limit, None)
        t, b = self.table, int(band_limit)
        if max(t.shape) > 2 * b + 1:
            raise ValueError(f"index outside band limit {b}")
        if max(t.shape) < 2 * b + 1 and not (t[:1].any() or t[:, :1].any()):  # no edge term
            b = int(np.abs(np.concatenate(np.nonzero(t)) - band_limit).max(initial=0))
            self.table = t[band_limit - b :, band_limit - b :]
        self.band_limit = b
        self.r_in = float(r_in)

    @property
    def offset(self):
        return -self.band_limit

    @property
    def _bound(self):
        return self.band_limit

    def _like(self, table, bound):
        return LaurentField(table, r_in=self.r_in, band_limit=bound)


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


# -- log-augmented fields and the Dirichlet-Poisson solve ------------------------


class LogLaurentField:
    """sum_l L_l ln(z zbar)^l with every Laurent level L_l on one band B.

    ``table[l, i, j]`` is the coefficient of ln(z zbar)^l z^(i-B) zbar^(j-B);
    each level is a full square of side 2B + 1.  Closed under the annulus
    Laplace solve.
    """

    __slots__ = ("table", "band_limit", "r_in")

    def __init__(self, table, band_limit, r_in):
        self.table = np.asarray(table, dtype=complex)
        self.band_limit = int(band_limit)
        self.r_in = float(r_in)

    @staticmethod
    def from_laurent(f: LaurentField):
        table = np.zeros((1, 2 * f.band_limit + 1, 2 * f.band_limit + 1), dtype=complex)
        table[0, : f.table.shape[0], : f.table.shape[1]] = f.table
        return LogLaurentField(table, f.band_limit, f.r_in)

    def __add__(self, other):
        levels = max(len(self.table), len(other.table))
        band = max(self.band_limit, other.band_limit)
        a, b = (np.pad(f.table, [(0, levels - len(f.table))] + 2 * [(band - f.band_limit,) * 2])
                for f in (self, other))
        return LogLaurentField(a + b, band, self.r_in)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, a):
        return LogLaurentField(self.table * complex(a), self.band_limit, self.r_in)

    def conjugate(self):  # ln(z zbar) is real: each level is conjugated
        return LogLaurentField(self.table.transpose(0, 2, 1).conj(), self.band_limit, self.r_in)

    def wirtinger(self, which):
        """d_z (d_zbar likewise): level l is d_z L_l + (l + 1) L_(l+1) / z, band widened by one."""
        t = self.table if which == "d_z" else self.table.transpose(0, 2, 1)
        B = self.band_limit
        out = np.zeros((len(t), 2 * B + 3, 2 * B + 3), dtype=complex)
        out[:, :-2, 1:-1] = np.arange(-B, B + 1)[:, None] * t
        out[:-1, :-2, 1:-1] += np.arange(1, len(t))[:, None, None] * t[1:]
        return LogLaurentField(out if which == "d_z" else out.transpose(0, 2, 1), B + 1, self.r_in)

    def boundary_trace(self, radius):
        """Angular-mode coefficients of the restriction to |z| = radius, k = -2B..2B at k + 2B:
        the ``angular_sums`` of the level sum weighted by ln(radius^2)^l radius^(m+n)."""
        powers = np.arange(-self.band_limit, self.band_limit + 1)
        logs = (2.0 * math.log(radius)) ** np.arange(len(self.table))
        vals = np.tensordot(logs, self.table, 1) * float(radius) ** np.add.outer(powers, powers)
        return angular_sums(vals)

    def laurent_part(self):
        """(pure Laurent component, coefficient norm of the leftover log terms)."""
        rest = LaurentField(self.table[0], r_in=self.r_in, band_limit=self.band_limit)
        return rest, float(np.linalg.norm(self.table[1:]))

    def coefficient_norm(self):
        return float(np.linalg.norm(self.table))

    def inner(self, other) -> complex:
        """Complex pairing: ``pair_tables`` of levels l1, l2 with row l1 + l2 of the log moments."""
        mine, theirs = ([LaurentField(t, g.r_in, g.band_limit) for t in g.table]
                        for g in (self, other))
        pairs = [(l1 + l2, f.offset + g.offset, f.table, g.table)
                 for l1, f in enumerate(mine) for l2, g in enumerate(theirs)]
        lo = min(start for _, start, _, _ in pairs)
        count = max(start + len(a) + b.shape[1] - 1 for _, start, a, b in pairs) - lo
        moments = _log_moments(lo, count, len(mine) + len(theirs) - 2, self.r_in)
        return sum(pair_tables(a, b, moments[L, start - lo :]) for L, start, a, b in pairs)

    def norm(self):
        return math.sqrt(max(self.inner(self).real, 0.0))


@np.errstate(over="raise")  # an overflowing power is a numerical failure, not an infinite moment
def _log_moments(start, count, L, r_in):
    """Row l: integrals over the annulus of z^a zbar^a ln(z zbar)^l, a = start .. start+count-1.

    2 pi 2^l I_l with I_l the integral of r^(q-1) ln(r)^l from r_in to 1 and q = 2a + 2:
    I_0 = (1 - r_in^q) / q and I_l = -r_in^q ln(r_in)^l / q - l I_(l-1) / q, for l = 0..L;
    at q = 0, I_l = -ln(r_in)^(l+1) / (l+1).
    """
    q = 2.0 * np.arange(start + 1, start + count + 1)
    pole, ln = q == 0, math.log(r_in)
    q = np.where(pole, 1.0, q)
    rq, ells = r_in**q, np.arange(L + 1)[:, None]
    rows = [(1.0 - rq) / q]
    for ell in range(1, L + 1):
        rows.append(-rq * ln**ell / q - ell / q * rows[-1])
    return 2 * math.pi * 2.0**ells * np.where(pole, -(ln ** (ells + 1)) / (ells + 1), rows)


@np.errstate(over="raise")
def poisson_annulus(rhs: LaurentField) -> LogLaurentField:
    """Solve Laplace(F) = rhs with F = 0 on both boundary circles, exactly.

    Particular solutions lift indices by (1,1); the m = -1 / n = -1 cases
    pick up a ln(z zbar) factor.  Boundary values are matched for every
    angular mode at once, in closed form, with the harmonic pairs
    {z^k, zbar^-k} (and {1, ln(z zbar)} for the rotationally symmetric mode).
    Both steps are complex-linear: any complex right-hand side is solved as it stands.
    """
    r_in, B = rhs.r_in, rhs.band_limit + 1
    # z^m zbar^n -> z^(m+1) zbar^(n+1) / (4 (m+1)(n+1)); a zero lifted power
    # takes the factor ln(z zbar) instead, and both zero take ln^2 / 8
    m1, n1 = np.indices(rhs.table.shape) + 1 + rhs.offset
    logs = (m1 == 0).astype(int) + (n1 == 0)
    den = 4.0 * np.where(m1 == 0, 1, m1) * np.where(n1 == 0, 1, n1) * np.where(logs == 2, 2, 1)
    lifted = np.zeros((3, 2 * B + 1, 2 * B + 1), dtype=complex)
    lifted[logs, m1 + B, n1 + B] = rhs.table / den
    part = LogLaurentField(lifted, B, r_in)
    t1, t2 = part.boundary_trace(1.0), part.boundary_trace(r_in)
    # mode k != 0: a on z^k (k > 0) or zbar^-k (k < 0) and b on the other
    # member of the pair, with traces r^|k| and r^-|k| on |z| = r
    k, c = np.arange(-2 * B, 2 * B + 1), 2 * B
    rk = r_in ** np.abs(k)
    b = (t1 * rk - t2) / np.where(k == 0, 1.0, r_in ** -np.abs(k) - rk)
    a = -t1 - b
    correction = np.zeros((2, 2 * c + 1, 2 * c + 1), dtype=complex)
    correction[0, :, c] = np.where(k > 0, a, b)
    correction[0, c, ::-1] = np.where(k > 0, b, a)
    # mode 0: basis {1, ln(z zbar)} with traces {1, 2 ln r}
    correction[:, c, c] = -t1[c], (t1[c] - t2[c]) / (2.0 * math.log(r_in))
    return part + LogLaurentField(correction, c, r_in)


def conformal_split(f: LaurentField):
    """(h, F, G, grad_bar(F), sgrad_bar(G), stray, residue): the annulus ``disk.conformal_split``.

    One solve of the complex residue gives Phi = F + iG, zero on both circles.
    The gradients are log-augmented, and stray is the coefficient norm of the
    zbar and log terms that exact arithmetic would cancel from
    f - grad_bar(F) - sgrad_bar(G), whose z-power part is h.
    """
    residue = cr_residual(f)
    potential = poisson_annulus(residue)
    conj = potential.conjugate()
    F, G = (potential + conj).scaled(0.5), (potential - conj).scaled(-0.5j)
    gF = F.wirtinger("d_z").scaled(2)
    sG = G.wirtinger("d_z").scaled(2j)
    rest, log_defect = (LogLaurentField.from_laurent(f) - gF - sG).laurent_part()
    h = rest.holomorphic_part()
    stray = math.hypot(rest.antiholomorphic_norm(), log_defect)
    return h, F, G, gF, sG, stray, residue
