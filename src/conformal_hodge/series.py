"""Exact algebra of truncated coefficient fields on the disk and the annulus.

A field is a finite sum ``sum c_{mn} z^m zbar^n`` identified with the
complex-valued function it evaluates to, and hence with a planar vector
field ``u + i v``.  Its coefficients live in one dense complex array,
``table[i, j] = c_{i+offset, j+offset}``: offset 0 for polynomials on the
disk, ``-b`` for Laurent fields on an annulus, with b the largest |power|
of a term, so a table depends on the terms alone.  An annulus field may
also carry powers of ln(z zbar), on a leading level axis:
``table[l, i, j]`` multiplies ``ln(z zbar)^l z^(i+offset) zbar^(j+offset)``,
and a field without log terms keeps its 2-D table.  Every operation below
is one array expression on that table and serves both domains.
All values are immutable after construction and every operation is a pure
function.  The public constructors check input from outside; an operation
builds its result through the value type's private constructor ``_like``,
which trims the table it has just computed but re-runs no check that the
operation proves.  Reductions run in a fixed index order, BLAS contractions
in fixed row blocks, so results are bit-reproducible whatever the thread count.
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
    """Drop trailing all-zero slices on every axis; a one-level table is stored 2-D,
    and the zero table has shape (0, 0), or (0,) for the coefficients of a series."""
    if table.ndim == 1:
        return table if table.size and table[-1] else table[: np.flatnonzero(table).max(initial=-1) + 1]
    if table.ndim == 3:  # the levels share the rows and columns of their union
        top = np.flatnonzero(table.any(axis=(1, 2)))[-1:]
        rows, cols = _trimmed(table.any(axis=0)).shape
        return table[: top[0] + 1, :rows, :cols] if top.any() else table[:1, :rows, :cols].reshape(rows, cols)
    if table.size and table[-1].any() and table[:, -1].any():
        return table
    rows = np.flatnonzero(table.any(axis=1))
    if not rows.size:
        return np.zeros((0, 0), dtype=complex)
    cols = np.flatnonzero(table.any(axis=0))
    return table[: rows[-1] + 1, : cols[-1] + 1]


def _frozen(table):
    """The trimmed table, read-only."""
    table = _trimmed(table)
    table.flags.writeable = False
    return table


def _levels(table):
    """The table with its level axis: a table without one is level 0."""
    return table if table.ndim == 3 else table[None]


class CoefficientField:
    """Coefficient table shared by disk and annulus fields.

    ``table[i, j]`` multiplies ``z^(i+offset) zbar^(j+offset)``, and a table
    with levels holds ``table[l, i, j]`` for ``ln(z zbar)^l`` times that; the
    table is trimmed to the slices that hold a nonzero term.  Subclasses
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
            *level, m, n, c = terms if isinstance(terms, tuple) else _columns(terms or {})
            if len(level) > bool(self.r_in) or level and level[0].min(initial=0) < 0:
                raise ValueError("log levels need an annulus, one level array and no level below 0")
            if (np.isinf(np.abs(c)) & np.isfinite(c)).any():  # as abs() of such a complex raises
                raise OverflowError("absolute value too large")
            keep = c != 0
            *_, i, j = index = (*(ell[keep] for ell in level), m[keep] - offset, n[keep] - offset)
            if i.size and min(i.min(), j.min()) < 0:
                raise ValueError(f"index below the lowest power {offset}")
            if bound is not None and i.size:
                self._check_indices(i, j, bound)
            table = np.zeros([a.max(initial=-1) + 1 for a in index], dtype=complex)
            np.add.at(table, index, c[keep])  # adding to zero also turns -0.0 into 0.0
        self.table = _frozen(table)

    # -- accessors ---------------------------------------------------------

    def items(self):
        """Nonzero terms ((m, n), c), or ((l, m, n), c) on a table with levels, in
        lexicographic order of the key."""
        *level, i, j = idx = np.nonzero(self.table)
        o = self.offset
        keys = zip(*(a.tolist() for a in level), (i + o).tolist(), (j + o).tolist())
        return list(zip(keys, self.table[idx].tolist()))

    def terms(self):
        """Copy of the coefficient table as {key: c}, keyed as ``items``."""
        return dict(self.items())

    def coefficient(self, m, n):
        """The coefficient of z^m zbar^n, on level 0."""
        t, i, j = _levels(self.table)[0], m - self.offset, n - self.offset
        if 0 <= i < t.shape[0] and 0 <= j < t.shape[1]:
            return complex(t[i, j])
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
        """The terms with n = 0 (no zbar content) on level 0."""
        col, level = -self.offset, _levels(self.table)[0]
        t = np.zeros_like(level)
        t[:, col : col + 1] = level[:, col : col + 1]
        return self._like(t, self._bound)

    def antiholomorphic_norm(self):
        """Coefficient norm of the terms outside ``holomorphic_part``: zbar powers and log levels."""
        t = _levels(self.table).copy()
        t[0, :, -self.offset : 1 - self.offset] = 0
        return float(np.linalg.norm(t))


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

    @classmethod
    def _like(cls, table, max_degree):
        """Private constructor for a complex table an operation has just allocated and
        whose degree bound it proves: trimmed and read-only, unchecked."""
        f = object.__new__(cls)
        f.table, f.max_degree = _frozen(table), int(max_degree)
        return f

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
        self.coeffs = _frozen(np.array(coeffs, dtype=complex).reshape(-1))

    @classmethod
    def _like(cls, coeffs):
        """As BivariateField._like, for a 1-D complex array: trimmed and read-only, not copied."""
        s = object.__new__(cls)
        s.coeffs = _frozen(coeffs)
        return s

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
        return HolomorphicSeries._like(self.to_array(n) + other.to_array(n))

    def __sub__(self, other):
        return self + (-as_series(other))

    def __neg__(self):
        return HolomorphicSeries._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return HolomorphicSeries._like(self.coeffs * complex(other))
        other = as_series(other)
        if not (self.coeffs.size and other.coeffs.size):
            return HolomorphicSeries()
        return HolomorphicSeries._like(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, point):
        return evaluate_grid(self, point)

    def derivative(self):
        return HolomorphicSeries._like(np.arange(1, len(self.coeffs)) * self.coeffs[1:])

    def to_field(self):
        return BivariateField._like(self.coeffs[:, None], self.degree)

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
        return HolomorphicSeries._like(self.coeffs @ as_series(inner).power_table(self.degree, max_degree))


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


def monomial(m, n, c=1.0):
    return BivariateField({(m, n): c})


def zero_field():
    return BivariateField({})


# -- elementary operations ---------------------------------------------------


def _check_domain(f, g):
    if type(f) is not type(g):
        raise TypeError(f"cannot combine {type(f).__name__} with {type(g).__name__}")
    if f.r_in != g.r_in:
        raise ValueError("operands live on annuli with different r_in")


def _aligned(f, g):
    """Both tables padded to one shape at the common (lower) offset, as they are
    when they share both; a table without levels is level 0, and two of them stay 2-D."""
    if f.offset == g.offset and f.table.shape == g.table.shape:
        return f.table, g.table
    o = min(f.offset, g.offset)
    (p, r, c), (q, s, d) = (_levels(h.table).shape for h in (f, g))
    out = np.zeros((2, max(p, q), max(r + f.offset, s + g.offset) - o,
                    max(c + f.offset, d + g.offset) - o), dtype=complex)
    for t, h in zip(out, (f, g)):
        i = h.offset - o
        t[: len(_levels(h.table)), i : i + h.table.shape[-2], i : i + h.table.shape[-1]] = h.table
    return out if out.shape[1] > 1 else out[:, 0]


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
    """Pointwise complex conjugate: swaps (m, n) -> (n, m) and conjugates (ln(z zbar) is real)."""
    f = as_field(f)
    return f._like(np.swapaxes(f.table, -1, -2).conj(), f._bound)


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
    return BivariateField._like(out, f.max_degree + g.max_degree)


def wirtinger(f, which):
    """Wirtinger derivative: d_z maps z^m zbar^n -> m z^(m-1) zbar^n, d_zbar likewise in n;
    on levels, d_z ln(z zbar)^l = l ln(z zbar)^(l-1) / z adds l L_l / z to level l - 1."""
    f = as_field(f)
    if which not in ("d_z", "d_zbar"):
        raise ValueError(f"unknown derivative {which!r} (want 'd_z' or 'd_zbar')")
    t = f.table if which == "d_z" else np.swapaxes(f.table, -1, -2)
    out = (np.arange(t.shape[-2]) + f.offset)[:, None] * t
    if t.ndim == 3:  # L_l / z lands where the derivative puts z^(m-1) zbar^n
        out[:-1] += np.arange(1, len(t))[:, None, None] * t[1:]
    if f.r_in:
        # on the annulus, powers step below the band: widen it by one, which
        # shifts the other axis of the table by one place
        out = np.pad(out, [(0, 0)] * (out.ndim - 1) + [(1, 0)])
        bound = f._bound + 1
    else:
        out = out[1:]
        bound = max(f._bound - 1, 0)
    return f._like(out if which == "d_z" else np.swapaxes(out, -1, -2), bound)


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


_BLOCK = 32  # contraction rows per BLAS call: fixed and short, so the bits ignore the thread count


def _sheared(table):
    """Read-only view V[i, k + C - 1] = table[i, i - k], k = 1 - C .. R - 1, of an (R, C) table,
    zero where i - k lies off it: row i of a zero-padded copy read backwards from column
    i + C - 1, so the columns of V are the diagonals m - n = k of the table."""
    R, C = table.shape
    pad = np.zeros((R + 1, R + C), dtype=complex)  # R zeros before each row, and a row of them
    pad[:R, R:] = table
    width, step = max(R + C - 1, 0), pad.itemsize
    V = np.ndarray((R, width), complex, pad, width * step, ((R + C + 1) * step, -step))
    V.flags.writeable = False
    return V


def angular_sums(table):
    """Sums of a coefficient table along its diagonals m - n = k: every mode
    k = 1 - cols .. rows - 1, at index k + cols - 1, each summed from zero in
    increasing m.  A table without columns has no modes."""
    if not table.shape[1]:
        return np.zeros(0, dtype=complex)
    return _sheared(table).sum(axis=0)


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
    Fd = np.ascontiguousarray(_sheared(a)[:, C - m : C + n - 1])  # for its float view below
    Gd = _sheared(b.T)[:, P - n : P + m - 1][:, ::-1]
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
    is one Hankel-weighted matrix product (``pair_tables``); on tables with
    levels, one per pair of levels l1, l2, against the moments weighted by
    ln(z zbar)^(l1 + l2).  A moment past the float range raises
    FloatingPointError, whatever the caller's errstate, and so does a sum
    past it here.
    """
    f, g = as_field(f), as_field(g)
    _check_domain(f, g)
    start = f.offset + g.offset
    if f.table.ndim == g.table.ndim == 2:
        count = len(f.table) + g.table.shape[1] - 1
        value = pair_tables(f.table, g.table, pair_constants(count, f.r_in, start))
    else:
        a, b = _levels(f.table), _levels(g.table)
        moments = _log_moments(start, a.shape[1] + b.shape[2] - 1, len(a) + len(b) - 2, f.r_in)
        value = sum(pair_tables(x, y, moments[l1 + l2])
                    for l1, x in enumerate(a) for l2, y in enumerate(b))
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
    """Values of a field or series at a complex point or array of points: Horner in z
    on each level, times ln(z zbar)^l on level l of a table with levels.

    Disk semantics expect |point| <= 1; evaluation outside is permitted but
    the inner-product and projection contracts only hold on the domain.
    """
    f = as_field(f)
    points = np.asarray(points, dtype=complex)
    z = points.ravel()
    acc = np.zeros_like(z)
    for ell, t in enumerate(_levels(f.table)):
        # per row m: sum_n c_mn zbar^n (scalars when the field is holomorphic)
        rows = t[:, 0] if t.shape[1] == 1 else np.vander(np.conj(z), t.shape[1], True) @ t.T
        level = np.zeros_like(z)
        for m in range(t.shape[0] - 1, -1, -1):
            level = level * z + rows[..., m]
        acc = acc + level * np.log((z * np.conj(z)).real) ** ell if ell else level
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


def trace_samples(f):
    """Circle samples 4 K, at least 256, with K the larger side of f's table.  On a circle
    f and f n (n the unit normal) have degree <= K, so by Bernstein's inequality their
    maximum is at most the sampled maximum over 1 - pi/4."""
    return max(256, 4 * max(as_field(f).table.shape[-2:]))


def boundary_max(f):
    """max |f| over ``trace_samples(f)`` equispaced samples of the unit circle."""
    return float(np.max(np.abs(evaluate_grid(f, boundary_points(trace_samples(f))))))


def random_field(rng, degree):
    """Random field with standard-normal complex coefficients up to total degree."""
    terms = {}
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            terms[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
    return BivariateField(terms, max_degree=degree)
