"""Independent numerical oracles used to derive expected test values.

These deliberately avoid the library's closed-form paths: fields are
evaluated by direct power sums, integrals are taken by quadrature, and the
Dirichlet-Poisson problems are solved by second-order finite differences
per angular mode on a fine radial grid.  The dict-loop kernels at the end
are the term-by-term reference for the library's array kernels and its
JSON term reader (and the term dicts the reference for its term writer), the shift-add diagonal sums are the reference for the
Hankel-weighted pairing and their padded diagonals for the angular sums,
and the forward-difference Jacobian and the residuals of the monomials,
one column each, are the references for the stationary matrix.  The field-arithmetic routes of the mapped operators
are the reference for their coefficient-vector forms, the 1-form route of
the membership test is the reference for its field form, and the tuple of
Laurent levels with a 2x2 solve per angular mode is the reference for the
level axis of the annulus fields and their Poisson solve.  The uncached forms of the disk
moments, the trailing-zero trim and the Toeplitz matrix of phi' pin their
cached replacements bit for bit, and the np.bincount route of the annulus
boundary trace pins its angular-sum form.
The random series and the primitive at the very end are test inputs and
a test-only inverse of the derivative.
"""

import cmath
import math
from collections import defaultdict

import numpy as np
from scipy.linalg import solve_banded

from conformal_hodge import annulus, disk, dynamics, forms, series, serialization
from conformal_hodge.mapping import _solve_gram, adjoint_dz_mapped
from conformal_hodge.quadrature import boundary_points
from conformal_hodge.series import HolomorphicSeries


def eval_terms(terms, pts):
    """Direct power-sum evaluation of {(m, n): c} at complex points."""
    pts = np.asarray(pts, dtype=complex)
    out = np.zeros_like(pts)
    conj = np.conj(pts)
    for (m, n), c in terms.items():
        out = out + c * pts ** float(m) * conj ** float(n)
    return out


def eval_log_laurent(F, pts):
    """Direct evaluation of a field sum_l L_l ln(z zbar)^l with levels at complex points."""
    ln = np.log(np.abs(pts) ** 2)
    levels = defaultdict(dict)
    for (ell, m, n), c in level_terms(F).items():
        levels[ell][(m, n)] = c
    return sum(eval_terms(terms, pts) * ln**ell for ell, terms in levels.items())


def polar_quad_nodes(n_radial=64, n_angular=256, r_inner=0.0, r_outer=1.0):
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    r = r_inner + (x + 1) * (r_outer - r_inner) / 2
    wr = wx * (r_outer - r_inner) / 2
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    wt = 2 * np.pi / n_angular
    z = r[:, None] * np.exp(1j * theta)[None, :]
    w = (wr * r)[:, None] * np.full(n_angular, wt)[None, :]
    return z.ravel(), w.ravel()


def quad_inner(terms_f, terms_g, n_radial=64, n_angular=256, r_inner=0.0):
    """Quadrature of the complex pairing integral of f conj(g) dA."""
    z, w = polar_quad_nodes(n_radial, n_angular, r_inner=r_inner)
    return complex(np.sum(eval_terms(terms_f, z) * np.conj(eval_terms(terms_g, z)) * w))


def _angular_modes(rhs_terms):
    modes = {}
    for (m, n), c in rhs_terms.items():
        modes.setdefault(m - n, []).append((m + n, c))
    return modes


def _radial_profile(powers, r):
    vals = np.zeros_like(r, dtype=complex)
    for p, c in powers:
        vals += c * r ** float(p)
    return vals


def _solve_mode_banded(k, lower, main, upper, rhs):
    n = len(main)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = upper[:-1]
    ab[1, :] = main
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def fd_poisson_disk(rhs_terms, n=4096):
    """FD solve of Laplace(F) = rhs with F = 0 on |z| = 1.

    One tridiagonal solve per angular mode on the staggered grid
    r_i = (i + 1/2) h; the reflection rule u(-r) = (-1)^k u(r) closes the
    origin stencil at second order.  Returns (radii, {mode: values}).
    """
    h = 1.0 / n
    r = (np.arange(n) + 0.5) * h
    out = {}
    for k, powers in _angular_modes(rhs_terms).items():
        ak = abs(k)
        lower = 1.0 / h**2 - 1.0 / (2 * h * r)
        upper = 1.0 / h**2 + 1.0 / (2 * h * r)
        main = -2.0 / h**2 - ak * ak / r**2 + 0j
        main = main.astype(complex)
        main[0] += (-1.0) ** ak * lower[0]  # reflection through the origin
        main[-1] -= upper[-1]  # Dirichlet zero midway to the ghost node
        out[k] = _solve_mode_banded(ak, lower, main, upper,
                                    _radial_profile(powers, r))
    return r, out


def fd_poisson_disk_values(rhs_terms, n=4096):
    """Solution values on the (radii x 64 angles) tensor grid."""
    r, modes = fd_poisson_disk(rhs_terms, n)
    thetas = 2 * np.pi * np.arange(64) / 64
    vals = np.zeros((len(r), len(thetas)), dtype=complex)
    for k, u in modes.items():
        vals += u[:, None] * np.exp(1j * k * thetas)[None, :]
    pts = r[:, None] * np.exp(1j * thetas)[None, :]
    return pts, vals


def fd_poisson_annulus_values(rhs_terms, r_in, n=4096):
    """Same FD oracle on the annulus, Dirichlet zero on both circles."""
    h = (1.0 - r_in) / (n + 1)
    r = r_in + h * np.arange(1, n + 1)
    thetas = 2 * np.pi * np.arange(64) / 64
    vals = np.zeros((len(r), len(thetas)), dtype=complex)
    for k, powers in _angular_modes(rhs_terms).items():
        ak = abs(k)
        lower = 1.0 / h**2 - 1.0 / (2 * h * r)
        upper = 1.0 / h**2 + 1.0 / (2 * h * r)
        main = (-2.0 / h**2 - ak * ak / r**2).astype(complex)
        u = _solve_mode_banded(ak, lower, main, upper, _radial_profile(powers, r))
        vals += u[:, None] * np.exp(1j * k * thetas)[None, :]
    pts = r[:, None] * np.exp(1j * thetas)[None, :]
    return pts, vals


# -- term-by-term reference kernels ------------------------------------------
# Fields are {(m, n): c} dicts and series are coefficient lists; every sum
# runs over the stored terms one pair at a time.


def dict_convolve(ft, gt):
    """Exact product: the nonzero terms of sum c d z^(m+p) zbar^(n+q)."""
    terms = defaultdict(complex)
    for (m, n), c in ft.items():
        for (p, q), d in gt.items():
            terms[(m + p, n + q)] += c * d
    return {k: c for k, c in terms.items() if c != 0}


def dict_terms(entries):
    """Decoded JSON terms as {(m, n): c}, one term at a time; ValueError for a
    term without int64 integers m, n and finite float-range numbers re, im
    (no bool), or for a repeated index."""
    terms = {}
    for e in entries:
        try:
            m, n, re, im = e["m"], e["n"], e["re"], e["im"]
            ok = (type(m) is int and type(n) is int
                  and type(re) in (int, float) and type(im) in (int, float)
                  and -2**63 <= m < 2**63 and -2**63 <= n < 2**63)
            c = complex(re, im)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed term {e!r}") from exc
        if not ok or not cmath.isfinite(c) or (m, n) in terms:
            raise ValueError(f"refused term {e!r}")
        terms[(m, n)] = c
    return terms


def term_dicts(obj):
    """obj with each term list that a *_to_json writer hands over as index and
    coefficient arrays turned back into its {"m", "n", "re", "im"} dicts, with
    "l" on a table with levels, one term at a time: the form json.dumps writes."""
    if isinstance(obj, serialization._TermArrays):
        terms = [{"m": int(m), "n": int(n), "re": float(c.real), "im": float(c.imag)}
                 for m, n, c in zip(obj.m, obj.n, obj.c)]
        for term, level in zip(terms, [] if obj.l is None else obj.l):
            term["l"] = int(level)
        return terms
    if isinstance(obj, dict):
        return {k: term_dicts(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [term_dicts(v) for v in obj]
    return obj


def annulus_moment(a, r_in):
    """Integral of |z|^(2a) over r_in <= |z| <= 1 (the unit disk for r_in = 0)."""
    if a == -1:
        return 2 * math.pi * math.log(1.0 / r_in)
    return math.pi * (1.0 - r_in ** (2 * a + 2)) / (a + 1)


def dict_inner_product(ft, gt, r_in=0.0):
    """Pairing <<f, g>>: matched angular buckets weighted by the radial moments."""
    buckets = defaultdict(list)
    for (p, q), d in sorted(gt.items()):
        buckets[p - q].append((p, q, d))
    total = 0j
    for (m, n), c in sorted(ft.items()):
        for p, q, d in buckets.get(m - n, ()):
            total += c * d.conjugate() * annulus_moment(m + q, r_in)
    return total


def diagonals(table, ks):
    """Row k - ks[0] lists the entries of `table` with i - j = k, in increasing i."""
    rows, cols = table.shape
    width = min(rows, cols)
    pad = np.zeros((rows + width, cols + width), dtype=complex)
    pad[:rows, :cols] = table
    r = np.arange(width)
    return pad[r + np.maximum(ks, 0)[:, None], r + np.maximum(-ks, 0)[:, None]]


def pair_sums(f, g):
    """(a0, s): s[a - a0] sums f_mn conj(g_pq) over the pairs with m - n = p - q, m + q = a.

    The shift-add form of the pairing: these are the diagonal entries of the
    product f * conj(g), so the pairing of f and g is s weighted by the
    moments of |z|^(2a).  Terms are grouped by angular index into rows, and
    the rows are convolved by direct shift-add summation.
    """
    a, b = f.table, g.table
    start = f.offset + g.offset
    kmin = 1 - min(a.shape[1], b.shape[1])
    kmax = min(a.shape[0], b.shape[0]) - 1
    if kmax < kmin:
        return start, np.zeros(0, dtype=complex)
    ks = np.arange(kmin, kmax + 1)
    A, B = diagonals(a, ks), np.conj(diagonals(b, ks))
    if A.shape[1] > B.shape[1]:
        A, B = B, A
    width = B.shape[1]
    C = np.zeros((len(ks), A.shape[1] + width - 1), dtype=complex)
    for r in range(A.shape[1]):
        C[:, r : r + width] += A[:, r : r + 1] * B
    idx = (np.abs(ks)[:, None] + np.arange(C.shape[1])).ravel()
    sums = np.bincount(idx, C.real.ravel()) + 1j * np.bincount(idx, C.imag.ravel())
    return start, sums


def horner_compose(outer, inner, max_degree):
    """outer(inner(z)) on coefficient lists by Horner's rule, truncated at max_degree."""
    acc = []
    for c in reversed(outer):
        prod = [0j] * max(len(acc) + len(inner) - 1, 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(inner):
                prod[i + j] += a * b
        acc = prod[: max_degree + 1]
        acc[0] += c
    return acc


# -- uncached forms of the cached kernels --------------------------------------


def bincount_boundary_trace(F, radius):
    """Angular-mode coefficients of the Laurent field F on |z| = radius, k = -2B..2B at
    k + 2B: the radius-weighted level sum binned by k with np.bincount."""
    B = F.band_limit
    levels = F.table if F.table.ndim == 3 else F.table[None]
    table = np.zeros((len(levels), 2 * B + 1, 2 * B + 1), dtype=complex)
    table[:, : levels.shape[1], : levels.shape[2]] = levels
    i, j = np.indices(table.shape[1:])
    logs = (2.0 * math.log(radius)) ** np.arange(len(table))
    vals = np.tensordot(logs, table, 1) * float(radius) ** (i + j - 2 * B)
    k = (i - j + 2 * B).ravel()
    return (np.bincount(k, vals.real.ravel(), 4 * B + 1)
            + 1j * np.bincount(k, vals.imag.ravel(), 4 * B + 1))


def closed_form_moments(count, r_in=0.0, start=0):
    """Moments of |z|^(2a) over r_in <= |z| <= 1, a = start .. start+count-1, recomputed."""
    d = np.arange(start + 1, start + count + 1, dtype=float)  # a + 1
    w = math.pi * (1.0 - r_in ** (2.0 * d)) / np.where(d == 0, 1.0, d)
    return np.where(d == 0, -2 * math.pi * math.log(r_in or 1.0), w)


def flatnonzero_trim(coeffs):
    """Coefficient vector cut after its last nonzero entry, found by np.flatnonzero."""
    cs = np.array(coeffs, dtype=complex).reshape(-1)
    nz = np.flatnonzero(cs)
    return cs[: nz[-1] + 1] if nz.size else cs[:0]


def where_toeplitz(d):
    """Lower-triangular Toeplitz matrix T[i, j] = d[i - j], built with np.where."""
    k = np.arange(len(d))
    gap = k[:, None] - k[None, :]
    return np.where(gap >= 0, d[gap], 0)  # negative gaps index from the end, masked


def fd_jacobian(residual, x, h=1e-7):
    """Forward-difference Jacobian of a complex residual in Re x and Im x.

    Column 2k is the derivative along Re x_k and column 2k+1 along Im x_k;
    for a complex-linear residual with matrix L they equal L[:, k] and
    1j * L[:, k].
    """
    r = residual(x)
    J = np.zeros((len(r), 2 * len(x)), dtype=complex)
    for k in range(len(x)):
        for part, delta in ((0, h), (1, h * 1j)):
            xp = np.array(x, dtype=complex)
            xp[k] += delta
            J[:, 2 * k + part] = (residual(xp) - r) / h
    return J


def stationary_matrix(V, domain, n):
    """The stationary matrix column by column: column k is the residual of z^k
    at projection degree n, cut to n + 2 rows."""
    return np.column_stack([
        dynamics.stationary_residual(HolomorphicSeries(e), V, domain=domain,
                                     proj_degree=n).to_array(n + 2)
        for e in np.eye(n)
    ])


# -- field-arithmetic routes of the mapped operators ----------------------------
# The geodesic right-hand side, the pulled-back frame and the weighted
# projection built from field products, as the library computed them before
# its coefficient-vector forms.


def basis_matrix(mapping, degree, max_degree):
    """Rows phi' phi^k by shift-add: one shifted copy of the power table per coefficient of phi'."""
    powers = mapping.phi.power_table(degree, max_degree)
    B = np.zeros_like(powers)
    for j, d in enumerate(mapping.phi_prime.coeffs[: max_degree + 1].tolist()):
        B[:, j:] += d * powers[:, : max_degree + 1 - j]
    return B


def project_con_mapped(mapping, f, degree, max_degree):
    """Mapped projection whose weighted field phi' f is a field product."""
    dphi = mapping.phi_prime.to_field()
    wf = series.convolve(dphi, f)
    B = basis_matrix(mapping, degree, max_degree)
    moments = series.angular_sums(wf.table * series.pair_constants(len(wf.table))[:, None])
    moments = moments[wf.table.shape[1] - 1 :]  # the modes k >= 0
    width = min(len(moments), B.shape[1])
    rhs = B[:, :width].conj() @ moments[:width]
    return HolomorphicSeries(_solve_gram(mapping, rhs, degree, max_degree))


def cut(f, max_degree):
    """f without its terms of total degree m + n > max_degree, of that max_degree."""
    m, n = np.indices(f.table.shape)
    return series.BivariateField(np.where(m + n > max_degree, 0, f.table), max_degree)


def geodesic_rhs(mapping, xi, proj_degree, max_degree):
    """(phi_dot, xi_dot) of the embedding flow from field products, conjugates and sums."""
    xi_pull = mapping.compose_with(xi, max_degree)
    aT = adjoint_dz_mapped(mapping, xi, degree=proj_degree, max_degree=max_degree)
    aT_pull = mapping.compose_with(aT, max_degree)
    xi_prime_pull = mapping.compose_with(xi.derivative(), max_degree)
    div_pull = series.add(xi_prime_pull.to_field(), series.conjugate(xi_prime_pull.to_field()))
    term1 = series.convolve(series.conjugate(xi_pull.to_field()), aT_pull.to_field())
    term2 = series.convolve(div_pull, xi_pull.to_field())
    B = cut(series.subtract(term1, series.scale(term2, 2)), max_degree)
    return xi_pull, project_con_mapped(mapping, B, proj_degree, max_degree)


# -- the 1-form route of the membership test ---------------------------------------
# The six-space report of a 1-form alpha = u dx + v dy as the library computed
# it before it read the field: the sharp map, the annulus split through
# W = F + iG, both form components on every circle, and d and delta from the
# form calculus.


def annulus_split(f):
    """(h, gF, sG, stray) of the annulus split: one solve each for the real F and G, and
    2 d_z W taken for W = F + iG."""
    residue = series.scale(series.wirtinger(f, "d_zbar"), 2)
    F = annulus.poisson_annulus(series.real_part(residue))
    G = annulus.poisson_annulus(series.imag_part(residue))
    gradient_sum = series.scale(series.wirtinger(series.add(F, series.scale(G, 1j)), "d_z"), 2)
    rest = series.subtract(f, gradient_sum)
    h = rest.holomorphic_part()
    stray = series.coefficient_norm(series.subtract(rest, h))
    return (h, series.scale(series.wirtinger(F, "d_z"), 2),
            series.scale(series.wirtinger(G, "d_z"), 2j), stray)


def form_traces(alpha, radius):
    """(max tangential, max normal) component of alpha over 256 samples of |z| = radius."""
    pts = radius * boundary_points(256)
    u = series.evaluate_grid(alpha.u_dx, pts)
    v = series.evaluate_grid(alpha.v_dy, pts)
    tangent = pts * 1j / radius
    normal = pts / radius
    tang = u * tangent.real + v * tangent.imag
    norm_c = u * normal.real + v * normal.imag
    return float(np.max(np.abs(tang))), float(np.max(np.abs(norm_c)))


def hodge_membership(alpha, tol):
    """MembershipReport of the 1-form alpha through its sharp image and the form calculus."""
    f = forms.sharp_map(alpha)
    if not f.r_in:
        h, F, G, gF, sG, stray, _ = disk.conformal_split(f)
        norms = {"A1": series.norm(gF), "A2": series.norm(sG), "A3": 0.0, "A4": 0.0,
                 "A5": 0.0, "A6": series.norm(h)}
        coordinates = {}
    else:
        h, gF, sG, stray = annulus_split(f)
        cls = annulus.annulus_classify(h)
        basis_norm = series.norm(annulus.laurent_monomial(-1, 0, 1.0, f.r_in))
        norms = {"A1": series.norm(gF), "A2": series.norm(sG), "A3": 0.0,
                 "A4": abs(cls.a5_coeff) * basis_norm, "A5": abs(cls.a4_coeff) * basis_norm,
                 "A6": series.norm(cls.a6_part)}
        coordinates = {"A4": cls.a5_coeff, "A5": cls.a4_coeff}
    total = series.norm(f)
    labels, inconclusive = forms._labels_from_norms(norms, total, tol)
    if stray > tol * max(total, 1.0):
        inconclusive = tuple(sorted(set(inconclusive) | {"unresolved"}))
    traces = [form_traces(alpha, r) for r in ((1.0, f.r_in) if f.r_in else (1.0,))]
    return forms.MembershipReport(
        labels=labels,
        norms=norms,
        inconclusive=inconclusive,
        boundary_tangential_max=max(t for t, _ in traces),
        boundary_normal_max=max(n for _, n in traces),
        closedness_defect=series.coefficient_norm(forms.exterior_derivative(alpha).density),
        coclosedness_defect=series.coefficient_norm(forms.codifferential(alpha).value),
        coordinates=coordinates,
    )



# -- the tuple-of-levels route of the annulus Poisson solve --------------------------
# Log-Laurent fields as a tuple of LaurentField levels, boundary traces as
# {k: c} dicts, one 2x2 solve per angular mode and the log-weighted moments
# by a scalar recursion: the annulus calculus before its level-stacked table.


def _level_over(f, which):
    """f / z (which 'd_z') or f / zbar ('d_zbar'): one index drops by one."""
    pad = ((0, 0), (1, 0)) if which == "d_z" else ((1, 0), (0, 0))
    return annulus.LaurentField(np.pad(f.table, pad), r_in=f.r_in, band_limit=f.band_limit + 1)


class LevelsLogLaurentField:
    """sum_l L_l ln(z zbar)^l, one LaurentField level L_l per power of the logarithm."""

    def __init__(self, levels, r_in):
        self.levels = tuple(levels)
        self.r_in = float(r_in)

    @staticmethod
    def from_laurent(f):
        return LevelsLogLaurentField((f,), r_in=f.r_in)

    def _level(self, ell):
        return self.levels[ell] if ell < len(self.levels) else annulus.LaurentField(None, self.r_in)

    def __add__(self, other):
        count = max(len(self.levels), len(other.levels))
        return LevelsLogLaurentField(
            [series.add(self._level(ell), other._level(ell)) for ell in range(count)], self.r_in)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, a):
        return LevelsLogLaurentField([series.scale(f, a) for f in self.levels], self.r_in)

    def conjugate(self):  # ln(z zbar) is real
        return LevelsLogLaurentField([series.conjugate(f) for f in self.levels], self.r_in)

    def wirtinger(self, which):
        # d/dz [L ln^l] = (d_z L) ln^l + l (L / z) ln^(l-1)
        out = []
        for ell, f in enumerate(self.levels):
            term = series.wirtinger(f, which)
            if ell + 1 < len(self.levels):
                over = _level_over(self.levels[ell + 1], which)
                term = series.add(term, series.scale(over, ell + 1))
            out.append(term)
        return LevelsLogLaurentField(out, self.r_in)

    def boundary_trace(self, radius):
        """{k: c}: angular-mode coefficients of the restriction to |z| = radius."""
        modes = {}
        ln_r2 = 2.0 * math.log(radius)
        for ell, f in enumerate(self.levels):
            for (m, n), c in f.items():
                modes[m - n] = modes.get(m - n, 0j) + c * float(radius) ** (m + n) * ln_r2**ell
        return modes

    def laurent_part(self):
        """(pure Laurent component, coefficient norm of the leftover log terms)."""
        leftover = math.sqrt(sum(series.coefficient_norm(f) ** 2 for f in self.levels[1:]))
        return self._level(0), leftover

    def inner(self, other) -> complex:
        """Complex pairing: level pairs weighted by the scalar log moments."""
        total = 0j
        for l1, f in enumerate(self.levels):
            for l2, g in enumerate(other.levels):
                start, sums = pair_sums(f, g)
                moments = [log_moment(start + a, l1 + l2, self.r_in) for a in range(len(sums))]
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


def log_moment(a, L, r_in):
    """Integral over the annulus of z^a zbar^a ln(z zbar)^L."""
    upper = _radial_antiderivative(2 * a + 1, L, 1.0)
    lower = _radial_antiderivative(2 * a + 1, L, r_in)
    return 2 * math.pi * (2.0**L) * (upper - lower)


def levels_poisson_annulus(rhs):
    """Laplace(F) = rhs with F = 0 on both circles: dict lift and a 2x2 solve per mode."""
    rhs = rhs.real_part()
    r_in = rhs.r_in
    levels = [{}, {}, {}]
    for (m, n), c in rhs.items():
        # z^m zbar^n -> z^(m+1) zbar^(n+1) / (4 (m+1)(n+1)); a zero lifted power
        # takes the factor ln(z zbar) instead, and both zero take ln^2 / 8
        m1, n1 = m + 1, n + 1
        den = 4.0 * (m1 or 1) * (n1 or 1) * (2 if m1 == n1 == 0 else 1)
        levels[(m1 == 0) + (n1 == 0)][(m1, n1)] = c / den
    part = LevelsLogLaurentField(
        [annulus.LaurentField(t, r_in=r_in, band_limit=rhs.band_limit + 1) for t in levels], r_in)
    outer = part.boundary_trace(1.0)
    inner = part.boundary_trace(r_in)
    plain, logs = {}, {}
    for k in sorted(set(outer) | set(inner)):
        t1, t2 = outer.get(k, 0j), inner.get(k, 0j)
        if k == 0:
            # basis {1, ln(z zbar)} with traces {1, 2 ln r}
            plain[(0, 0)] = -t1
            logs[(0, 0)] = (t1 - t2) / (2.0 * math.log(r_in))
        else:
            # basis {z^k, zbar^-k} (k > 0) traces r^k, r^-k on |z| = r
            kk = abs(k)
            mat = np.array([[1.0, 1.0], [r_in**kk, r_in ** (-kk)]], dtype=float)
            sol = np.linalg.solve(mat, np.array([-t1, -t2]))
            if k > 0:
                plain[(k, 0)], plain[(0, -k)] = sol
            else:
                plain[(0, kk)], plain[(-kk, 0)] = sol
    correction = LevelsLogLaurentField(
        [annulus.LaurentField(plain, r_in=r_in), annulus.LaurentField(logs, r_in=r_in)], r_in)
    return part + correction


def levels_conformal_split(f):
    """(F, G, grad_bar(F), sgrad_bar(G), stray) of the annulus split on the tuple route."""
    residue = series.cr_residual(f)
    F = levels_poisson_annulus(series.real_part(residue))
    G = levels_poisson_annulus(series.imag_part(residue))
    gF = F.wirtinger("d_z").scaled(2)
    sG = G.wirtinger("d_z").scaled(2j)
    rest, log_defect = (LevelsLogLaurentField.from_laurent(f) - gF - sG).laurent_part()
    return F, G, gF, sG, math.hypot(rest.antiholomorphic_norm(), log_defect)


def level_terms(F):
    """{(l, m, n): c} of a Laurent field with or without levels, or of a LevelsLogLaurentField."""
    if isinstance(F, LevelsLogLaurentField):
        return {(ell, m, n): c for ell, f in enumerate(F.levels) for (m, n), c in f.items()}
    return {(key if len(key) == 3 else (0, *key)): c for key, c in F.items()}


def random_series(rng, degree):
    return HolomorphicSeries(
        [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(degree + 1)]
    )


def antiderivative(h):
    """Primitive of the series h with zero constant term."""
    return HolomorphicSeries(
        np.concatenate([[0j], h.coeffs / np.arange(1, len(h.coeffs) + 1)])
    )

