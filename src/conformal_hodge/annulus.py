"""Laurent-coefficient calculus on the annulus r_in <= |z| <= 1.

Laurent fields share the coefficient table of the disk fields, with the
index offset -band_limit, so the element-wise operations and the pairing
of ``series`` serve them unchanged.  The Dirichlet Poisson solver augments
the Laurent table with powers of ln(z zbar) for the z^-1 modes and the
two-circle boundary matching; two such solves give ``conformal_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    CoefficientField,
    add,
    angular_sums,
    coefficient_norm,
    cr_residual,
    imag_part,
    pair_sums,
    real_part,
    scale,
    subtract,
    wirtinger,
)


class NonConformalInputError(ValueError):
    """Input field has nonzero antiholomorphic content."""


class LaurentField(CoefficientField):
    """Polynomial in z, zbar, 1/z, 1/zbar with a band limit on the indices.

    ``table[i, j]`` is the coefficient of z^(i-band_limit) zbar^(j-band_limit).
    ``terms`` is a {(m, n): c} mapping, or a tuple (m, n, c) of index and
    coefficient arrays or a 2-D complex array used as the table itself (then
    band_limit is required).
    """

    __slots__ = ("band_limit", "r_in")

    def __init__(self, terms, r_in, band_limit=None):
        if not 0.0 < r_in < 1.0:
            raise ValueError("r_in must lie strictly between 0 and 1")
        if band_limit is None:
            band_limit = max((max(abs(int(m)), abs(int(n)))
                              for (m, n), c in (terms or {}).items() if c != 0), default=0)
        super().__init__(terms, -int(band_limit), int(band_limit))
        if max(self.table.shape) > 2 * band_limit + 1:
            raise ValueError(f"index outside band limit {band_limit}")
        self.band_limit = int(band_limit)
        self.r_in = float(r_in)

    @staticmethod
    def _check_indices(i, j, band_limit):
        if max(i.max(), j.max()) > 2 * band_limit:
            raise ValueError(f"index outside band limit {band_limit}")

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


def _over(f: LaurentField, which):
    """f / z (which 'd_z') or f / zbar ('d_zbar'): one index drops by one."""
    pad = ((0, 0), (1, 0)) if which == "d_z" else ((1, 0), (0, 0))
    return LaurentField(np.pad(f.table, pad), r_in=f.r_in, band_limit=f.band_limit + 1)


class LogLaurentField:
    """sum_l L_l ln(z zbar)^l, one Laurent level L_l per power of the logarithm.

    Closed under the annulus Laplace solve.
    """

    __slots__ = ("levels", "r_in")

    def __init__(self, levels, r_in):
        self.levels = tuple(levels)
        self.r_in = float(r_in)

    @staticmethod
    def from_laurent(f: LaurentField):
        return LogLaurentField((f,), r_in=f.r_in)

    def _level(self, ell):
        return self.levels[ell] if ell < len(self.levels) else LaurentField(None, self.r_in)

    def __add__(self, other):
        count = max(len(self.levels), len(other.levels))
        return LogLaurentField(
            [add(self._level(ell), other._level(ell)) for ell in range(count)], r_in=self.r_in
        )

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, a):
        return LogLaurentField([scale(f, a) for f in self.levels], r_in=self.r_in)

    def wirtinger(self, which):
        # d/dz [L ln^l] = (d_z L) ln^l + l (L / z) ln^(l-1)
        out = []
        for ell, f in enumerate(self.levels):
            term = wirtinger(f, which)
            if ell + 1 < len(self.levels):
                term = add(term, scale(_over(self.levels[ell + 1], which), ell + 1))
            out.append(term)
        return LogLaurentField(out, r_in=self.r_in)

    def boundary_trace(self, radius):
        """Angular-mode coefficients of the restriction to |z| = radius."""
        modes = {}
        ln_r2 = 2.0 * math.log(radius)
        for ell, f in enumerate(self.levels):
            i, j = np.indices(f.table.shape)
            vals = f.table * float(radius) ** (i + j + 2 * f.offset) * ln_r2**ell
            sums = list(enumerate(angular_sums(vals).tolist()))
            sums += [(-k, v) for k, v in enumerate(angular_sums(vals.T).tolist()) if k]
            for k, v in sums:
                modes[k] = modes.get(k, 0j) + v
        return modes

    def laurent_part(self):
        """(pure Laurent component, coefficient norm of the leftover log terms)."""
        leftover = math.sqrt(sum(coefficient_norm(f) ** 2 for f in self.levels[1:]))
        return self._level(0), leftover

    def coefficient_norm(self):
        return math.sqrt(sum(coefficient_norm(f) ** 2 for f in self.levels))

    def inner(self, other) -> complex:
        """Complex pairing using the log-weighted radial moments."""
        total = 0j
        for l1, f in enumerate(self.levels):
            for l2, g in enumerate(other.levels):
                start, sums = pair_sums(f, g)
                moments = [_log_moment(start + a, l1 + l2, self.r_in) for a in range(len(sums))]
                total += complex(sums @ np.array(moments))
        return total

    def norm(self):
        return math.sqrt(max(self.inner(self).real, 0.0))


def _radial_antiderivative(p, L, r):
    """Antiderivative of r^p ln(r)^L evaluated at r (elementary recursion)."""
    if p == -1:
        return math.log(r) ** (L + 1) / (L + 1)
    if L == 0:
        return r ** (p + 1) / (p + 1)
    return (
        r ** (p + 1) * math.log(r) ** L / (p + 1)
        - L / (p + 1) * _radial_antiderivative(p, L - 1, r)
    )


def _log_moment(a, L, r_in):
    """Integral over the annulus of z^a zbar^a ln(z zbar)^L."""
    upper = _radial_antiderivative(2 * a + 1, L, 1.0)
    lower = _radial_antiderivative(2 * a + 1, L, r_in)
    return 2 * math.pi * (2.0**L) * (upper - lower)


def poisson_annulus(rhs: LaurentField) -> LogLaurentField:
    """Solve Laplace(F) = rhs with F = 0 on both boundary circles, exactly.

    Particular solutions lift indices by (1,1); the m = -1 / n = -1 cases
    pick up a ln(z zbar) factor.  Boundary values are matched per angular
    mode with the harmonic pairs {z^k, zbar^-k} (and {1, ln(z zbar)} for
    the rotationally symmetric mode).
    """
    size = max(rhs.coefficient_norm(), 1.0)
    if not rhs.is_real(tol=1e-12 * size):
        raise ValueError("poisson_annulus needs a real-valued right-hand side")
    rhs = rhs.real_part()
    r_in = rhs.r_in
    # z^m zbar^n -> z^(m+1) zbar^(n+1) / (4 (m+1)(n+1)); a zero lifted power
    # takes the factor ln(z zbar) instead, and both zero take ln^2 / 8
    i, j = np.indices(rhs.table.shape)
    m1, n1 = i + 1 + rhs.offset, j + 1 + rhs.offset
    den = 4.0 * np.where(m1 == 0, 1, m1) * np.where(n1 == 0, 1, n1)
    den = den * np.where((m1 == 0) & (n1 == 0), 2, 1)
    lifted = np.pad(rhs.table / den, ((2, 0), (2, 0)))
    log_power = np.pad((m1 == 0).astype(int) + (n1 == 0), ((2, 0), (2, 0)))
    part = LogLaurentField(
        [LaurentField(np.where(log_power == ell, lifted, 0), r_in=r_in,
                      band_limit=rhs.band_limit + 1) for ell in range(3)],
        r_in=r_in,
    )
    outer = part.boundary_trace(1.0)
    inner = part.boundary_trace(r_in)
    plain, logs = {}, {}
    for k in sorted(outer):  # both circles carry the same angular modes
        t1, t2 = outer[k], inner[k]
        if k == 0:
            # basis {1, ln(z zbar)} with traces {1, 2 ln r}
            plain[(0, 0)] = -t1
            logs[(0, 0)] = (t1 - t2) / (2.0 * math.log(r_in))
        else:
            # basis {z^k, zbar^-k} (k > 0) traces r^k, r^-k on |z| = r
            kk = abs(k)
            mat = np.array(
                [[1.0, 1.0], [r_in**kk, r_in ** (-kk)]], dtype=float
            )
            sol = np.linalg.solve(mat, np.array([-t1, -t2]))
            if k > 0:
                plain[(k, 0)] = sol[0]
                plain[(0, -k)] = sol[1]
            else:
                plain[(0, kk)] = sol[0]
                plain[(-kk, 0)] = sol[1]
    correction = LogLaurentField(
        [LaurentField(plain, r_in=r_in), LaurentField(logs, r_in=r_in)], r_in=r_in
    )
    return part + correction


def conformal_split(f: LaurentField):
    """(h, F, G, grad_bar(F), sgrad_bar(G), stray): ``disk.conformal_split`` on the annulus.

    F and G vanish on both circles, the gradients are log-augmented, and
    stray is the coefficient norm of the zbar and log terms that exact
    arithmetic would cancel from f - grad_bar(F) - sgrad_bar(G), whose
    z-power part is h.
    """
    residue = cr_residual(f)
    F = poisson_annulus(real_part(residue))
    G = poisson_annulus(imag_part(residue))
    gF = F.wirtinger("d_z").scaled(2)
    sG = G.wirtinger("d_z").scaled(2j)
    rest, log_defect = (LogLaurentField.from_laurent(f) - gF - sG).laurent_part()
    h = rest.holomorphic_part()
    stray = math.hypot(rest.antiholomorphic_norm(), log_defect)
    return h, F, G, gF, sG, stray
