"""Array kernels against the term-by-term dict-loop references in oracles.py.

The tolerance is fixed in advance: 1e-12 times the product of the
coefficient norms of the operands, which bounds every coefficient of a
product; a pairing is held to 1e-12 times the pairing of the moduli,
sum |f_mn| |g_pq| w_(m+q), since the annulus moments of negative powers
exceed any norm product.  Inputs cover dense and sparse tables,
holomorphic-only fields, and Laurent fields with negative indices; the
pairing examples add tables that span several blocks of its contraction,
rectangular, one-row, one-column and empty tables, and a band-20 Laurent
field.  The angular diagonal sums are held bit for bit to the oracle's
diagonals added from zero in increasing m, every mode of both signs, and to
their pairwise sum within the a-priori bound of a reordered sum; the strided
diagonal views, and the angular sums and the pairing read off them, are held
bit for bit to the index-array gather they replaced; the annulus boundary
trace is held bit for bit to its retired np.bincount route.  The operations
on annulus fields with log levels are held to the tuple-of-levels route, one
LaurentField per power of ln(z zbar), within the same relative tolerance; an
evaluation also allows the rounding of the log, which the two routes take of
|z|^2 computed two ways.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import series as s
from conformal_hodge.annulus import LaurentField, boundary_trace
from conformal_hodge.series import BivariateField, HolomorphicSeries

import oracles

REL_TOL = 1e-12
EPS = np.finfo(float).eps
SUBNORMAL = np.finfo(float).smallest_subnormal

coefficient = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def _norm(terms):
    return math.hypot(*(abs(c) for c in terms.values()))  # no underflow for tiny terms


def _compose_tol(outer, inner):
    # Horner multiplies by inner once per outer coefficient.  The relative
    # bound underflows to 0 for subnormal coefficients, so each accumulated
    # product may also differ by a couple of subnormal steps.
    relative = REL_TOL * _norm(dict(enumerate(outer))) * (1 + _norm(dict(enumerate(inner)))) ** len(outer)
    return relative + 2 * SUBNORMAL * len(outer) * (len(inner) + 1)


@st.composite
def disk_terms(draw, max_degree=8):
    """{(m, n): c} that is dense, sparse, or holomorphic-only."""
    kind = draw(st.sampled_from(["dense", "sparse", "holomorphic"]))
    degree = draw(st.integers(0, max_degree))
    if kind == "holomorphic":
        slots = [(m, 0) for m in range(degree + 1)]
    else:
        slots = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    if kind == "sparse":
        slots = draw(st.lists(st.sampled_from(slots), max_size=5, unique=True))
    return {idx: draw(coefficient) for idx in slots}


@st.composite
def laurent_terms(draw, band=2):
    dense = draw(st.booleans())
    slots = [(m, n) for m in range(-band, band + 1) for n in range(-band, band + 1)]
    if not dense:
        slots = draw(st.lists(st.sampled_from(slots), max_size=6, unique=True))
    return {idx: draw(coefficient) for idx in slots}


def _degree(terms):
    return max((m + n for m, n in terms), default=0)


@given(disk_terms(12), disk_terms(12), st.integers(0, 3), st.integers(0, 3))
@example({(9, 0): 1.0}, {(8, 1): 2.0j}, 0, 0)  # total degree 18, above DEFAULT_MAX_DEGREE
@settings(max_examples=100, deadline=None)
def test_convolve_matches_dict_loop(ft, gt, f_slack, g_slack):
    f = BivariateField(ft, max_degree=_degree(ft) + f_slack)
    g = BivariateField(gt, max_degree=_degree(gt) + g_slack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exact: nothing to warn about
        got = s.convolve(f, g)
    ref = oracles.dict_convolve(f.terms(), g.terms())
    tol = REL_TOL * _norm(ft) * _norm(gt)
    keys = set(ref) | set(got.terms())
    assert max((abs(got.coefficient(*k) - ref.get(k, 0j)) for k in keys), default=0.0) <= tol
    assert got.max_degree == f.max_degree + g.max_degree


@st.composite
def tables(draw):
    """Complex tables that are empty (no rows or no columns), 1x1, one row, one
    column, wide or tall; up to 16 terms per diagonal, so numpy's pairwise sum
    takes its unrolled path.  Moduli span twelve decades, and about a tenth
    of the entries are negative zeros, whose sum from zero is a positive zero."""
    short, long = draw(st.integers(2, 16)), draw(st.integers(17, 24))
    rows, cols = draw(st.sampled_from([(0, 0), (0, short), (short, 0), (1, 1), (1, long),
                                       (long, 1), (short, long), (long, short)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((rows, cols, 2)) * 10.0 ** rng.integers(-6, 6, (rows, cols, 1))
    table = values.view(complex)[..., 0]
    table[rng.random((rows, cols)) < 0.1] = complex(-0.0, -0.0)
    return table


@given(tables())
@example(np.ones((3, 0), dtype=complex))  # rows but no columns
@settings(max_examples=100, deadline=None)
def test_angular_sums_match_diagonals(t):
    rows, cols = t.shape
    got = s.angular_sums(t)
    if not cols:
        assert got.shape == (0,)  # a table without columns has no modes
        return
    ks = np.arange(1 - cols, rows)  # every mode, at index k + cols - 1
    D = oracles.diagonals(t, ks)  # row k + cols - 1: the entries with m - n = k
    assert got.shape == (len(ks),)
    # each diagonal summed from zero in increasing m, bit for bit
    ref = np.zeros(len(ks), dtype=complex)
    for column in D.T:
        ref = ref + column
    assert _same_bits(got, ref)
    # against numpy's pairwise sum of the same terms: either order is within
    # n u sum|x| of the exact sum, so 1e-15 relative per summed term holds
    tol = 1e-15 * max(D.shape[1], 1) * np.abs(D).sum(axis=1)
    assert np.all(np.abs(got - D.sum(axis=1)) <= tol)


@given(tables())
@example(np.zeros((0, 0), dtype=complex))
@example(np.ones((0, 2), dtype=complex))  # no rows: the modes -1 .. 0 are empty sums
@example(np.ones((3, 0), dtype=complex))
@example(np.arange(1, 6, dtype=complex)[:, None])  # one column
@settings(max_examples=100, deadline=None)
def test_diagonal_views_match_gathered_diagonals(t):
    V = s._sheared(t)
    assert _same_bits(V, oracles.gathered_diagonals(t)) and not V.flags.writeable
    if t.shape[1]:
        assert _same_bits(s.angular_sums(t), oracles.gathered_diagonals(t).sum(axis=0))


def _random_table(seed, rows, cols):
    return np.random.default_rng(seed).standard_normal((rows, cols, 2)).view(complex)[..., 0]


@given(tables(), tables(), st.integers(0, 2**32 - 1))
@example(np.ones((0, 2), dtype=complex), _random_table(1, 3, 3), 0)  # an empty table
@example(_random_table(2, 5, 1), _random_table(3, 4, 1), 1)  # one column each: the termwise sum
@example(_random_table(4, 5, 1), _random_table(5, 2, 7), 2)  # one column against a wide table
@example(_random_table(6, 70, 5), _random_table(7, 3, 40), 3)  # three row blocks of the contraction
@settings(max_examples=100, deadline=None)
def test_pairing_on_diagonal_views_matches_gathered_diagonals(a, b, seed):
    w = np.random.default_rng(seed).uniform(0.1, 10.0, len(a) + b.shape[1] + 1)
    assert _same_bits(np.array(s.pair_tables(a, b, w)), np.array(oracles.gathered_pairing(a, b, w)))


def _pairing_tol(ft, gt, r_in=0.0):
    """REL_TOL times sum |f_mn| |g_pq| w_(m+q) over the matched pairs, the scale of a
    pairing's roundoff.  The kernel weights a coefficient before it multiplies the
    other one, so where the relative bound underflows to 0 for subnormal
    coefficients each product may also differ by a couple of subnormal steps."""
    moduli = ({k: abs(c) for k, c in t.items()} for t in (ft, gt))
    scale = oracles.dict_inner_product(*moduli, r_in=r_in).real
    return REL_TOL * scale + 2 * SUBNORMAL * len(ft) * len(gt)


def _random_terms(seed, slots):
    rng = np.random.default_rng(seed)
    return {idx: complex(*rng.standard_normal(2)) for idx in slots}


def _block(rows, cols):
    return [(m, n) for m in range(rows) for n in range(cols)]


# degree 70 spans three 32-row blocks of the pairing's contraction
DEGREE_70 = [_random_terms(seed, [(m, n) for m in range(71) for n in range(71 - m)])
             for seed in (70, 71)]
BAND_20 = [_random_terms(seed, [(m, n) for m in range(-20, 21) for n in range(-20, 21)])
           for seed in (20, 21)]


@given(disk_terms(), disk_terms())
@example(*DEGREE_70)
@example(_random_terms(1, _block(41, 3)), _random_terms(2, _block(5, 38)))  # rectangular
@example(_random_terms(3, _block(1, 10)), DEGREE_70[0])  # one row
@example(_random_terms(4, _block(40, 1)), _random_terms(5, _block(9, 1)))  # one column each
@example(_random_terms(6, _block(40, 1)), _random_terms(7, _block(6, 6)))
@example({}, DEGREE_70[1])  # empty
@example({}, {})
@settings(max_examples=100, deadline=None)
def test_inner_product_matches_dict_loop(ft, gt):
    f, g = BivariateField(ft), BivariateField(gt)
    got = s.inner_product(f, g)
    ref = oracles.dict_inner_product(f.terms(), g.terms())
    assert abs(got - ref) <= _pairing_tol(ft, gt)


@given(laurent_terms(), laurent_terms(), st.floats(0.5, 0.9))
@example(*BAND_20, 0.7)
@settings(max_examples=100, deadline=None)
def test_annulus_inner_matches_dict_loop(ft, gt, r_in):
    f, g = LaurentField(ft, r_in=r_in), LaurentField(gt, r_in=r_in, band_limit=20)
    got = s.inner_product(f, g)
    ref = oracles.dict_inner_product(f.terms(), g.terms(), r_in=r_in)
    assert abs(got - ref) <= _pairing_tol(ft, gt, r_in)


@given(st.lists(coefficient, max_size=6), st.lists(coefficient, max_size=4),
       st.integers(0, 20))
# squaring 7e-233 underflows, so a squared-sum norm of outer reads 0; Horner
# loses the 1.4e-286 value that the kernel keeps
@example([7.06052286431455e-233 + 0j, 1.4420435432434897e-286j, 7.06052286431455e-233 + 0j],
         [1j], 0)
@settings(max_examples=100, deadline=None)
def test_compose_matches_horner_loop(outer, inner, max_degree):
    inner = [c / max(1.0, abs(c)) for c in inner]  # keep |inner| coefficients <= 1
    got = HolomorphicSeries(outer).compose(HolomorphicSeries(inner), max_degree)
    ref = oracles.horner_compose(outer, inner, max_degree)
    tol = _compose_tol(outer, inner)
    width = max(len(ref), len(got.coeffs))
    assert np.max(np.abs(got.to_array(width) - np.pad(ref, (0, width - len(ref)))),
                  initial=0.0) <= tol


@given(st.lists(coefficient, max_size=6), st.lists(coefficient, max_size=6),
       st.lists(coefficient, max_size=4), st.integers(0, 20))
# the kernel and Horner differ by 5e-324, one subnormal step, where the
# relative bound underflows to 0
@example([], [0j, 0j, 2.2250738585e-313 + 0j], [4 + 1j], 0)
@settings(max_examples=100, deadline=None)
def test_compose_with_cached_table_matches_horner_loop(first, second, inner, max_degree):
    # the second composition reads, and may extend, the power table the first one cached
    inner = [c / max(1.0, abs(c)) for c in inner]
    shared = HolomorphicSeries(inner)
    for outer in (first, second):
        got = HolomorphicSeries(outer).compose(shared, max_degree)
        ref = oracles.horner_compose(outer, inner, max_degree)
        tol = _compose_tol(outer, inner)
        width = max(len(ref), len(got.coeffs))
        assert np.max(np.abs(got.to_array(width) - np.pad(ref, (0, width - len(ref)))),
                      initial=0.0) <= tol


# -- cached kernels against their uncached forms, bit for bit ------------------


def _same_bits(a, b):
    """np.array_equal that also tells -0.0 from 0.0 and compares NaN payloads."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


radius = st.one_of(st.just(0.0), st.floats(0.001, 0.999))


@given(st.integers(0, 200), radius, st.integers(-10, 10))
@example(5, 0.5, -3)  # a = -1 inside the range: the log moment 2 pi ln(1/r_in)
@example(1, 0.25, -1)  # the log moment alone
@settings(max_examples=100, deadline=None)
def test_pair_constants_match_closed_form(count, r_in, start):
    if r_in == 0.0:
        start = max(start, 0)  # negative powers of |z| are not integrable on the disk
    first = s.pair_constants(count, r_in, start)
    again = s.pair_constants(count, r_in, start)  # served from the cache
    ref = oracles.closed_form_moments(count, r_in, start)
    assert np.array_equal(first, ref) and _same_bits(first, ref) and _same_bits(again, ref)


def test_overflowing_moments_raise_whatever_the_errstate():
    # an infinite moment would turn a zero sum into a silent NaN; a raise is
    # never cached, so the second call raises too
    for mode in ("ignore", "raise"):
        with np.errstate(over=mode):
            for _ in range(2):
                with pytest.raises(FloatingPointError, match="overflow"):
                    s.pair_constants(200, 0.001, -150)


@given(st.lists(coefficient, max_size=5), st.integers(0, 4), st.integers(1, 6),
       st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_power_table_does_not_depend_on_the_order_of_requests(coeffs, short, more, max_degree):
    inner = HolomorphicSeries(coeffs)
    first = inner.power_table(short, max_degree)
    kept = first.copy()
    longer = inner.power_table(short + more, max_degree)  # past the cached rows
    fresh = HolomorphicSeries(coeffs).power_table(short + more, max_degree)
    assert _same_bits(longer, fresh)
    assert _same_bits(first, kept)  # the array returned first keeps its bits


def _level_table(rng, levels, band):
    shape = (levels, 2 * band + 1, 2 * band + 1)
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    table[rng.random(shape) < 0.3] = 0.0
    return table


@st.composite
def log_laurent_fields(draw):
    """Laurent fields of 1-3 levels on band 0-6, with zero and negative-zero entries."""
    levels, band = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = _level_table(rng, levels, band)
    table *= 10.0 ** rng.integers(-6, 6, table.shape)
    table[rng.random(table.shape) < 0.1] = complex(-0.0, -0.0)
    return LaurentField(table, draw(st.floats(0.01, 0.99)), band)


@given(log_laurent_fields())
@settings(max_examples=100, deadline=None)
def test_boundary_trace_matches_bincount_route(F):
    for radius in (F.r_in, 1.0):
        assert _same_bits(boundary_trace(F, radius), oracles.bincount_boundary_trace(F, radius))


@st.composite
def level_pairs(draw):
    """Two fields of 1-3 levels on bands 0-4 of one annulus, each as a LaurentField and
    as the oracle's tuple of levels; one level is a field without levels."""
    r_in = draw(st.floats(0.3, 0.9))
    pair = []
    for _ in range(2):
        levels, band = draw(st.integers(1, 3)), draw(st.integers(0, 4))
        table = _level_table(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), levels, band)
        ref = oracles.LevelsLogLaurentField(
            [LaurentField({(i - band, j - band): c for (i, j), c in np.ndenumerate(t) if c}, r_in)
             for t in table], r_in)
        pair.append((LaurentField(table, r_in, band), ref))
    return pair


def _assert_levels_close(got, want, size):
    got, want = oracles.level_terms(got), oracles.level_terms(want)
    assert all(abs(got.get(k, 0j) - want.get(k, 0j)) <= REL_TOL * size for k in {*got, *want})


def _log_pairing_tol(F, G):
    """REL_TOL times sum |f_mn| |g_pq| |w_l(m+q)| over the matched pairs of every level
    pair, with w_l the moments weighted by ln(z zbar)^l."""
    moduli = [[LaurentField({k: abs(c) for k, c in f.items()}, F.r_in) for f in H.levels]
              for H in (F, G)]
    scale = 0.0
    for l1, f in enumerate(moduli[0]):
        for l2, g in enumerate(moduli[1]):
            start, sums = oracles.pair_sums(f, g)
            scale += sum(x.real * abs(oracles.log_moment(start + a, l1 + l2, F.r_in))
                         for a, x in enumerate(sums))
    return REL_TOL * scale


@given(level_pairs())
@settings(max_examples=60, deadline=None)
def test_level_operations_match_tuple_of_levels_route(pair):
    (f, F), (g, G) = pair
    size = s.coefficient_norm(f) + s.coefficient_norm(g)
    _assert_levels_close(s.add(f, g), F + G, size)
    _assert_levels_close(s.subtract(f, g), F - G, size)
    _assert_levels_close(s.scale(f, 0.75 - 2j), F.scaled(0.75 - 2j), 2.2 * size)
    _assert_levels_close(s.conjugate(g), G.conjugate(), size)
    for which in ("d_z", "d_zbar"):
        _assert_levels_close(s.wirtinger(f, which), F.wirtinger(which), 8 * size)
    assert f.holomorphic_part() == F.levels[0].holomorphic_part()
    assert abs(s.inner_product(f, g) - F.inner(G)) <= _log_pairing_tol(F, G)
    rng = np.random.default_rng(len(f) + len(g))
    pts = np.sqrt(rng.uniform(f.r_in**2, 1.0, 50)) * np.exp(2j * math.pi * rng.random(50))
    assert np.all(np.abs(s.evaluate_grid(f, pts) - oracles.eval_log_laurent(F, pts))
                  <= _evaluation_tol(F, pts))


def _evaluation_tol(F, pts):
    """REL_TOL times sum |c| |ln|z|^2|^l |z|^(m+n) over the terms, plus the rounding of the
    log: the library takes ln((z conj z).real) and the oracle ln(abs(z)**2), which differ by
    an ulp of |z|^2, so a term may also differ by l |ln|z|^2|^(l-1) 4 eps |c| |z|^(m+n)."""
    ln = np.abs(np.log(np.abs(pts) ** 2))
    return sum(abs(c) * np.abs(pts) ** (m + n)
               * (REL_TOL * ln**ell + ell * ln ** max(ell - 1, 0) * 4 * EPS)
               for (ell, m, n), c in oracles.level_terms(F).items())


def test_evaluation_near_the_unit_circle_allows_the_rounding_of_the_log():
    # a draw of the test above: at |z| = 0.99985 the two logs differ by an ulp of |z|^2,
    # about 1e-16 / |ln|z|^2| relative, so REL_TOL alone is not a bound there
    c, r_in = 2.6 * cmath.exp(0.7j), 0.8629
    f = LaurentField(np.array([[[0j]], [[c]]]), r_in, 0)  # c ln(z zbar)
    F = oracles.LevelsLogLaurentField([LaurentField({}, r_in), LaurentField({(0, 0): c}, r_in)], r_in)
    z = np.array([complex(0.4854988666741642, -0.8740657143247882)])
    gap = abs(s.evaluate_grid(f, z) - oracles.eval_log_laurent(F, z))[0]
    assert gap > REL_TOL * abs(c) * abs(math.log(abs(z[0]) ** 2))
    assert gap <= _evaluation_tol(F, z)[0]


@given(st.integers(0, 4), st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_one_level_table_is_stored_as_the_plain_field(band, seed, zero_levels):
    table = _level_table(np.random.default_rng(seed), 1, band)
    stacked = np.concatenate([table, np.zeros((zero_levels,) + table.shape[1:])])
    plain = LaurentField(table[0], 0.5, band)
    for f in (LaurentField(stacked, 0.5, band), LaurentField(table, 0.5, band)):
        assert f.table.ndim == 2 and f == plain and _same_bits(f.table, plain.table)
        assert hash(f) == hash(plain) and f.items() == plain.items()
    # cancelling the log levels of a field with levels leaves its level 0, bit for bit
    logs = _level_table(np.random.default_rng(seed + 1), 2, band)
    logs[0] = 0.0
    leveled = LaurentField(np.concatenate([table, logs[1:]]), 0.5, band)
    level0 = s.subtract(leveled, LaurentField(logs, 0.5, band))
    assert level0 == plain and _same_bits(level0.table, plain.table)


trailing = st.lists(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                     complex(-0.0, -0.0)]), max_size=40)


@given(st.lists(coefficient, max_size=6), trailing,
       st.sampled_from([None, complex(math.nan, 0.0), complex(0.0, math.nan), 1.0]))
@example([], [0j] * 40, None)  # all zeros: the empty series
@example([1.0, complex(-0.0, 0.0)], [], None)  # a trailing -0.0 is a zero
@example([2.0], [0j], complex(math.nan, 0.0))  # a NaN last entry is kept
@settings(max_examples=100, deadline=None)
def test_series_trim_matches_flatnonzero(head, zeros, last):
    coeffs = head + zeros + ([] if last is None else [last])
    got = HolomorphicSeries(coeffs).coeffs
    ref = oracles.flatnonzero_trim(coeffs)
    assert np.array_equal(got, ref, equal_nan=True) and _same_bits(got, ref)


def test_cached_arrays_are_read_only():
    for arr in (s.pair_constants(8), s.pair_constants(8, 0.5, -2),
                HolomorphicSeries([1.0, 2.0]).coeffs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
