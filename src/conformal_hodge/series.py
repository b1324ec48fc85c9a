"""Exact algebra of truncated coefficient fields on the disk and the annulus.

A field is a finite sum ``sum c_{mn} z^m zbar^n`` identified with the
complex-valued function it evaluates to, and hence with a planar vector
field ``u + i v``.  Its coefficients live in one dense complex array,
``table[i, j] = c_{i+offset, j+offset}``: offset 0 for polynomials on the
disk, ``-b`` for Laurent fields on an annulus, with b the largest |power|
of a term, so a table depends on the terms alone.  Every operation below
is one array expression on that table and serves both domains.
All values are immutable after construction and every operation is a pure
function; reductions run in a fixed index order, BLAS contractions in fixed
row blocks, so results are bit-reproducible whatever the thread count.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings

import numpy as np

from .quadrature import boundary_points

DEFAULT_MAX_DEGREE = 16
VANISHING_TOL = 1e-12


class TruncationWarning(UserWarning):
    """A truncation dropped coefficient mass of nonzero norm."""


_PACKAGE_PREFIX = __name__.rpartition(".")[0] + "."


def _caller_stacklevel():
    """The warnings.warn stacklevel, for the function that calls this one, that
    names the first frame outside the package's modules, however deep inside
    them the warning is raised.  A module run as __main__ counts as outside."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE_PREFIX):
        level, frame = level + 1, frame.f_back
    return level


def _columns(terms):
    """Index and coefficient arrays (m, n, c) of a {(m, n): c} mapping."""
    mn = np.array(list(terms), dtype=np.int64).reshape(len(terms), 2)
    return mn[:, 0], mn[:, 1], np.array(list(terms.values()), dtype=complex)


def _trimmed(table):
    """Drop trailing all-zero rows and columns; the zero table has shape (0, 0)."""
    if table.size and table[-1].any() and table[:, -1].any():
        return table
    rows = np.flatnonzero(table.any(axis=1))
    if not rows.size:
        return np.zeros((0, 0), dtype=complex)
    cols = np.flatnonzero(table.any(axis=0))
    return table[: rows[-1] + 1, : cols[-1] + 1]


class CoefficientField:
    """Coefficient table shared by disk and annulus fields.

    ``table[i, j]`` multiplies ``z^(i+offset) zbar^(j+offset)``; the table is
    trimmed to the rows and columns that hold a nonzero term.  Subclasses
    fix the offset, the domain radius ``r_in`` and the truncation bound;
    every nonzero listed term is kept, and listed terms are checked against
    a given bound before their table is allocated.
    """

    __slots__ = ("table",)
    offset = 0
    r_in = 0.0

    def __init__(self, terms, offset, bound):
        if isinstance(terms, np.ndarray):
            table = np.asarray(terms, dtype=complex)
        else:
            m, n, c = terms if isinstance(terms, tuple) else _columns(terms or {})
            if (np.isinf(np.abs(c)) & np.isfinite(c)).any():  # as abs() of such a complex raises
                raise OverflowError("absolute value too large")
            keep = c != 0
            i, j = m[keep] - offset, n[keep] - offset
            if i.size and min(i.min(), j.min()) < 0:
                raise ValueError(f"index below the lowest power {offset}")
            if bound is not None and i.size:
                self._check_indices(i, j, bound)
            table = np.zeros((i.max(initial=-1) + 1, j.max(initial=-1) + 1), dtype=complex)
            np.add.at(table, (i, j), c[keep])  # adding to zero also turns -0.0 into 0.0
        table = _trimmed(table)
        table.flags.writeable = False
        self.table = table

    # -- accessors ---------------------------------------------------------

    def items(self):
        """Nonzero terms ((m, n), c) in lexicographic (m, n) order."""
        i, j = np.nonzero(self.table)
        o = self.offset
        return [((m + o, n + o), c) for m, n, c in
                zip(i.tolist(), j.tolist(), self.table[i, j].tolist())]

    def terms(self):
        """Copy of the coefficient table as {(m, n): c}."""
        return dict(self.items())

    def coefficient(self, m, n):
        i, j = m - self.offset, n - self.offset
        if 0 <= i < self.table.shape[0] and 0 <= j < self.table.shape[1]:
            return complex(self.table[i, j])
        return 0j

    def __bool__(self):
        return bool(self.table.size)

    def __len__(self):
        return int(np.count_nonzero(self.table))

    def __eq__(self, other):
        if not isinstance(other, CoefficientField):
            return NotImplemented
        return (type(self) is type(other) and self.r_in == other.r_in
                and self.offset == other.offset and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms()!r})"

    # -- arithmetic sugar (delegates to the module-level operations) --------

    def __add__(self, other):
        return add(self, as_field(other))

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, as_field(other))

    def __rsub__(self, other):
        return subtract(as_field(other), self)

    def __neg__(self):
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return scale(self, other)
        return convolve(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return scale(self, other)
        return convolve(other, self)

    def __call__(self, point):
        return evaluate_grid(self, point)

    def real_part(self):
        return real_part(self)

    def coefficient_norm(self):
        return coefficient_norm(self)

    def is_real(self, tol):
        """True when c_{nm} == conj(c_{mn}) within tol (pointwise real values)."""
        a, b = _aligned(self, conjugate(self))
        return not np.any(np.abs(a - b) > tol)

    def holomorphic_part(self):
        """The terms with n = 0 (no zbar content)."""
        col = -self.offset
        t = np.zeros_like(self.table)
        t[:, col : col + 1] = self.table[:, col : col + 1]
        return self._like(t, self._bound)

    def antiholomorphic_norm(self):
        """Coefficient norm of the terms with n != 0."""
        return coefficient_norm(subtract(self, self.holomorphic_part()))


class BivariateField(CoefficientField):
    """Polynomial in z and zbar on the unit disk, total degree <= max_degree.

    ``table[m, n]`` is the coefficient of z^m zbar^n; entries with
    m + n > max_degree are zero (the triangular layout).  ``terms`` is a
    {(m, n): c} mapping, a tuple (m, n, c) of index and coefficient arrays,
    or a 2-D complex array used as the table itself.
    """

    __slots__ = ("max_degree",)

    def __init__(self, terms=None, max_degree=None):
        super().__init__(terms, 0, max_degree)
        t = self.table
        if max_degree is None:
            max_degree = self.degree()
        elif sum(t.shape) - 2 > max_degree and np.triu(t[::-1], max_degree - t.shape[0] + 2).any():
            raise ValueError(f"term of degree {self.degree()} exceeds max_degree {max_degree}")
        self.max_degree = int(max_degree)

    @staticmethod
    def _check_indices(m, n, max_degree):
        degree = m.astype(np.uint64) + n.astype(np.uint64)  # both >= 0: no overflow
        if (degree > max_degree).any():
            raise ValueError(f"term of degree {degree.max()} exceeds max_degree {max_degree}")

    @property
    def _bound(self):
        return self.max_degree

    def _like(self, table, bound):
        return BivariateField(table, bound)

    def degree(self):
        """Largest total degree actually present (0 for the zero field)."""
        i, j = np.nonzero(self.table)
        return int((i + j).max()) if i.size else 0


class HolomorphicSeries:
    """Truncated Taylor series sum a_k z^k; the conformal (Cauchy-Riemann) fields.

    ``coeffs`` is a read-only 1-D complex array without trailing zeros.
    The slot ``_powers`` holds the power tables of the series once one is
    asked for, keyed by truncation degree.
    """

    __slots__ = ("coeffs", "_powers")

    def __init__(self, coeffs=()):
        cs = np.array(coeffs, dtype=complex).reshape(-1)
        if not (cs.size and cs[-1]):
            nz = np.flatnonzero(cs)
            cs = cs[: nz[-1] + 1] if nz.size else cs[:0]
        cs.flags.writeable = False
        self.coeffs = cs

    @property
    def degree(self):
        return max(len(self.coeffs) - 1, 0)

    def coefficient(self, k):
        return complex(self.coeffs[k]) if 0 <= k < len(self.coeffs) else 0j

    def to_array(self, length):
        """Coefficient vector of exactly `length` entries, zero-padded or cut."""
        out = np.zeros(length, dtype=complex)
        out[: min(length, len(self.coeffs))] = self.coeffs[:length]
        return out

    def __bool__(self):
        return bool(self.coeffs.size)

    def __eq__(self, other):
        if not isinstance(other, HolomorphicSeries):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(self.coeffs.tolist()))

    def __repr__(self):
        return f"HolomorphicSeries({self.coeffs.tolist()!r})"

    def __add__(self, other):
        other = as_series(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return HolomorphicSeries(self.to_array(n) + other.to_array(n))

    def __sub__(self, other):
        return self + (-as_series(other))

    def __neg__(self):
        return HolomorphicSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return HolomorphicSeries(self.coeffs * complex(other))
        other = as_series(other)
        if not (self.coeffs.size and other.coeffs.size):
            return HolomorphicSeries()
        return HolomorphicSeries(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, point):
        return evaluate_grid(self, point)

    def derivative(self):
        return HolomorphicSeries(np.arange(1, len(self.coeffs)) * self.coeffs[1:])

    def to_field(self):
        return BivariateField(self.coeffs[:, None])

    def truncated(self, max_degree):
        if len(self.coeffs) - 1 <= max_degree:
            return self
        dropped = float(np.linalg.norm(self.coeffs[max_degree + 1 :]))
        total = float(np.linalg.norm(self.coeffs))
        if dropped > 0:
            warnings.warn(
                f"HolomorphicSeries.truncated: truncation dropped coefficient mass "
                f"{dropped:.3e} ({dropped / total:.3e} relative)",
                TruncationWarning,
                stacklevel=_caller_stacklevel(),
            )
        return HolomorphicSeries(self.coeffs[: max_degree + 1])

    @staticmethod
    def from_field(field):
        """The z-power part of a disk field; zbar content raises ValueError, others TypeError."""
        if not isinstance(field, BivariateField):
            raise TypeError(f"cannot interpret {type(field).__name__} as a holomorphic series")
        bad = field.antiholomorphic_norm()
        if bad > 0.0:
            raise ValueError(f"field has non-holomorphic terms of coefficient norm {bad:.3e}")
        return HolomorphicSeries(field.table[:, :1])

    def power_table(self, degree, max_degree):
        """Rows k = 0..degree: coefficients of self^k truncated at max_degree (read-only).

        Cached on the series per max_degree.  A request past the cached rows
        builds rows 0..degree afresh by the same product chain, so each row is
        the same whatever the order of requests.
        """
        tables = getattr(self, "_powers", None)
        if tables is None:
            tables = self._powers = {}
        table = tables.get(max_degree)
        if table is None or len(table) <= degree:
            table = np.zeros((degree + 1, max_degree + 1), dtype=complex)
            table[0, 0] = 1.0
            base = self.coeffs[: max_degree + 1]
            for k in range(1, degree + 1 if base.size else 1):
                table[k] = np.convolve(table[k - 1], base)[: max_degree + 1]
            table.flags.writeable = False
            tables[max_degree] = table
        return table[: degree + 1]

    def compose(self, inner, max_degree):
        """Series composition self(inner(z)) = sum a_k inner^k, truncated at max_degree."""
        if not self:
            return self
        return HolomorphicSeries(self.coeffs @ as_series(inner).power_table(self.degree, max_degree))


def as_field(x) -> CoefficientField:
    if isinstance(x, CoefficientField):
        return x
    if isinstance(x, HolomorphicSeries):
        return x.to_field()
    if isinstance(x, (int, float, complex)):
        return BivariateField({(0, 0): complex(x)})
    raise TypeError(f"cannot interpret {type(x).__name__} as a field")


def as_series(x) -> HolomorphicSeries:
    if isinstance(x, HolomorphicSeries):
        return x
    if isinstance(x, (int, float, complex)):
        return HolomorphicSeries([complex(x)])
    return HolomorphicSeries.from_field(x)


def monomial(m, n, c=1.0, max_degree=None):
    return BivariateField({(m, n): c}, max_degree=max_degree)


def zero_field():
    return BivariateField({})


# -- elementary operations ---------------------------------------------------


def _check_domain(f, g):
    if type(f) is not type(g):
        raise TypeError(f"cannot combine {type(f).__name__} with {type(g).__name__}")
    if f.r_in != g.r_in:
        raise ValueError("operands live on annuli with different r_in")


def _aligned(f, g):
    """Both tables padded to one shape at the common (lower) offset."""
    o = min(f.offset, g.offset)
    shape = [max(f.table.shape[ax] + f.offset, g.table.shape[ax] + g.offset) - o for ax in (0, 1)]
    out = [np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)]
    for t, h in zip(out, (f, g)):
        s = h.offset - o
        t[s : s + h.table.shape[0], s : s + h.table.shape[1]] = h.table
    return out


def add(f, g):
    f, g = as_field(f), as_field(g)
    _check_domain(f, g)
    a, b = _aligned(f, g)
    return f._like(a + b, max(f._bound, g._bound))


def subtract(f, g):
    return add(f, scale(g, -1))


def scale(f, a):
    f = as_field(f)
    return f._like(f.table * complex(a), f._bound)


def conjugate(f):
    """Pointwise complex conjugate: swaps (m, n) -> (n, m) and conjugates."""
    f = as_field(f)
    return f._like(f.table.T.conj(), f._bound)


def convolve(f, g):
    """Exact product of disk fields, of max_degree f.max_degree + g.max_degree.

    Direct shift-add summation: each nonzero term of the sparser factor adds
    a shifted copy of the other factor's table.
    """
    f, g = as_field(f), as_field(g)
    if not (isinstance(f, BivariateField) and isinstance(g, BivariateField)):
        raise TypeError("products are defined for disk fields only")
    a, b = f.table, g.table
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(np.maximum(np.add(a.shape, b.shape) - 1, 0), dtype=complex)
    rows, cols = b.shape
    i, j = np.nonzero(a)
    for m, n, c in zip(i.tolist(), j.tolist(), a[i, j].tolist()):
        out[m : m + rows, n : n + cols] += c * b
    return BivariateField(out, f.max_degree + g.max_degree)


def wirtinger(f, which):
    """Wirtinger derivative: d_z maps z^m zbar^n -> m z^(m-1) zbar^n, d_zbar likewise in n."""
    f = as_field(f)
    if which not in ("d_z", "d_zbar"):
        raise ValueError(f"unknown derivative {which!r} (want 'd_z' or 'd_zbar')")
    t = f.table if which == "d_z" else f.table.T
    t = (np.arange(t.shape[0]) + f.offset)[:, None] * t
    if f.offset:
        # negative powers step below the band: widen it by one, which shifts
        # the other axis of the table by one place
        t = np.pad(t, ((0, 0), (1, 0)))
        bound = f._bound + 1
    else:
        t = t[1:]
        bound = max(f._bound - 1, 0)
    return f._like(t if which == "d_z" else t.T, bound)


def cr_residual(f):
    """2 d_zbar f; zero iff f is conformal.  Re = u_x - v_y, Im = v_x + u_y."""
    return scale(wirtinger(f, "d_zbar"), 2)


def div_curl(f):
    """2 d_z f; Re = divergence u_x + v_y, Im = scalar vorticity v_x - u_y."""
    return scale(wirtinger(f, "d_z"), 2)


def real_part(f):
    """(f + conj f)/2 as a real-valued field (exact coefficient arithmetic)."""
    return scale(add(f, conjugate(f)), 0.5)


def imag_part(f):
    """(f - conj f)/(2i) as a real-valued field."""
    return scale(subtract(f, conjugate(f)), -0.5j)


def laplacian(f):
    """4 d_z d_zbar f (the flat Laplacian on coefficient tables)."""
    return scale(wirtinger(wirtinger(f, "d_z"), "d_zbar"), 4)


# -- inner products ----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def pair_constants(count, r_in=0.0, start=0):
    """Moments of |z|^(2a) over r_in <= |z| <= 1 for a = start .. start+count-1.

    pi (1 - r_in^(2a+2)) / (a+1), and 2 pi ln(1/r_in) at a = -1; at r_in = 0
    this is exactly the disk moment pi/(a+1).  Cached per argument triple as
    a read-only array.  A power past the float range raises
    FloatingPointError whatever the caller's errstate, and a raise is never
    cached: an infinite moment would turn a zero sum into a silent NaN.
    """
    with np.errstate(over="raise", divide="raise"):
        d = np.arange(start + 1, start + count + 1, dtype=float)  # a + 1
        w = math.pi * (1.0 - r_in ** (2.0 * d)) / np.where(d == 0, 1.0, d)
        w = np.where(d == 0, -2 * math.pi * math.log(r_in or 1.0), w)
    w.flags.writeable = False
    return w


_BLOCK = 32  # contraction rows per BLAS call: fixed and short, so the bits ignore the thread count


@functools.lru_cache(maxsize=32)
def _diagonal_index(rows, cols):
    """Flat index of t[i, i - k] at [i, k + cols - 1], k = 1 - cols .. rows - 1, for a (rows, cols)
    table t; rows * cols, a zero appended to t, where that entry lies off the table."""
    i = np.arange(rows)[:, None]
    j = i - np.arange(1 - cols, rows)
    idx = np.where((0 <= j) & (j < cols), i * cols + j, rows * cols)
    idx.flags.writeable = False
    return idx


def angular_sums(table):
    """Sums of a coefficient table along its diagonals m - n = k: every mode
    k = 1 - cols .. rows - 1, at index k + cols - 1, each summed from zero in
    increasing m.  A table without columns has no modes."""
    R, C = table.shape
    if not C:
        return np.zeros(0, dtype=complex)
    return np.append(table, 0)[_diagonal_index(R, C)].sum(axis=0)


def pair_tables(a, b, w):
    """sum a[i, j] conj(b[p, q]) w[i + q] over i - j = p - q, len(w) >= rows(a) + cols(b) - 1:
    sum conj(Gd) (W^T Fd) with the Hankel matrix W[i, q] = w[i + q], Fd[i, k] = a[i, i - k] and
    Gd[q, k] = b[q + k, q], contracted over i in fixed row blocks (one-column pairs: termwise)."""
    (R, C), (P, Q) = a.shape, b.shape
    if C == Q == 1:
        n = min(R, P)
        return complex((a[:n, 0] * np.conj(b[:n, 0])) @ w[:n])
    m, n = min(C, Q), min(R, P)  # k = 1 - m .. n - 1
    if not (m and n):
        return 0j
    Fd = np.append(a, 0)[_diagonal_index(R, C)[:, C - m : C + n - 1]]
    Gd = np.append(b.T, 0)[_diagonal_index(Q, P)[:, P - n : P + m - 1][:, ::-1]]
    W = np.ndarray((R, Q), float, w, strides=w.strides * 2)  # a view; raises if w is short
    Fr = Fd.view(float)  # W is real: one real matrix product per block
    acc = sum(W[s : s + _BLOCK].T @ Fr[s : s + _BLOCK] for s in range(0, R, _BLOCK))
    return complex((np.conj(Gd) * acc.view(complex)).sum())


def inner_product(f, g) -> complex:
    """Complex L2 pairing <<f, g>> over the field's domain, conjugate-linear in the
    second slot; its real part is the real pairing <f, g>.

    Closed form: <<z^m zbar^n, z^p zbar^q>> is the moment of |z|^(2(m+q))
    when m - n == p - q, else 0; extended bilinearly.  On the disk this is
    pi/(m+q+1); on the annulus the moment over r_in <= |z| <= 1.  The sum
    is one Hankel-weighted matrix product (``pair_tables``).  A moment past
    the float range raises FloatingPointError in ``pair_constants``, whatever
    the caller's errstate, and so does a sum past it here.
    """
    f, g = as_field(f), as_field(g)
    _check_domain(f, g)
    count = len(f.table) + g.table.shape[1] - 1
    value = pair_tables(f.table, g.table, pair_constants(count, f.r_in, f.offset + g.offset))
    if not cmath.isfinite(value):
        raise FloatingPointError("the pairing overflows the float range")
    return value


def norm(f) -> float:
    """L2 norm sqrt(<f, f>) over the field's domain."""
    v = inner_product(f, f).real
    return math.sqrt(max(v, 0.0))


def coefficient_norm(f) -> float:
    return float(np.linalg.norm(as_field(f).table))


# -- evaluation ---------------------------------------------------------------


def evaluate_grid(f, points):
    """Values of a field or series at a complex point or array of points (Horner in z).

    Disk semantics expect |point| <= 1; evaluation outside is permitted but
    the inner-product and projection contracts only hold on the domain.
    """
    f = as_field(f)
    points = np.asarray(points, dtype=complex)
    z = points.ravel()
    t = f.table
    acc = np.zeros_like(z)
    if t.size:
        # per row m: sum_n c_mn zbar^n (scalars when the field is holomorphic)
        rows = t[:, 0] if t.shape[1] == 1 else np.vander(np.conj(z), t.shape[1], True) @ t.T
        for m in range(t.shape[0] - 1, -1, -1):
            acc = acc * z + rows[..., m]
        acc = acc * (z * np.conj(z)).real ** f.offset
    return acc.reshape(points.shape)[()]  # a scalar for a scalar point


def certificate_samples(degree):
    """Base count of circle samples for a series of this degree: 8 per degree, at
    least 128.  disk_min_modulus doubles it when the sampling margin is not
    positive; the boundary polygon of a map stays at this count."""
    return 8 * max(degree, 16)


CERTIFY_DOUBLINGS = 8  # disk_min_modulus tries 2^k times the base samples, k <= this
_ROUNDING = 1e-12  # allowance for the rounding of sampled values, per unit of sum |b_k|


def sampling_slack(coeffs, n):
    """How far the minimum of |s| (or of Re(c s), |c| = 1) over the unit circle
    may lie below its minimum on n equispaced samples, for s = sum b_k z^k.

    Every point of the circle lies within pi/n of a sample and
    |d/dtheta s(e^{i theta})| <= sum k |b_k|; the rounding allowance scales
    with sum |b_k|, which bounds |s| on the circle.
    """
    a = np.abs(coeffs)
    return math.pi / n * float(np.arange(len(a)) @ a) + _ROUNDING * float(a.sum())


def disk_min_modulus(s, vals):
    """(min |s| over the closed unit disk, None), or (0.0, why) when s vanishes
    there or that minimum cannot be certified positive.

    vals are s on boundary_points(n).  By the argument principle the winding
    number of s around 0 counts its zeros in the disk, and when there are
    none the minimum modulus principle puts the minimum over the closed disk
    on the circle.  Both read the samples, so they hold once the margin
    min |s(samples)| - sampling_slack(b, n) is positive: then s has no zero
    on the circle and the sampled winding number is exact.  The reported
    minimum is the sample minimum at the first n with a positive margin.
    Otherwise n doubles, at most CERTIFY_DOUBLINGS times, before the answer
    is "cannot certify".  A sample at or below VANISHING_TOL times the
    largest one, or a nonzero sampled winding number, rejects at once.
    """
    n, cap = len(vals), len(vals) << CERTIFY_DOUBLINGS
    while True:
        mod = np.abs(vals)
        if not mod.min() > VANISHING_TOL * mod.max():  # NaN lands here too
            return 0.0, f"vanishes or is not finite on the circle (min modulus {mod.min():.3e})"
        winding = round(np.angle(np.roll(vals, -1) / vals).sum() / (2 * math.pi))
        if winding:
            return 0.0, f"has {winding} zero(s) in the unit disk (argument principle)"
        margin = mod.min() - sampling_slack(s.coeffs, n)
        if margin > 0:
            return float(mod.min()), None
        if n >= cap:
            return 0.0, (f"has a sampling margin of {margin:.3e} at {n} samples: cannot "
                         "certify that it has no zero in the closed disk")
        n *= 2
        vals = evaluate_grid(s, boundary_points(n))


def boundary_max(f):
    """max |f| over 256 equispaced samples of the unit circle."""
    return float(np.max(np.abs(evaluate_grid(f, boundary_points(256)))))


def random_field(rng, degree, real=False):
    """Random field with standard-normal complex coefficients up to total degree."""
    terms = {}
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            terms[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
    f = BivariateField(terms, max_degree=degree)
    return real_part(f) if real else f
