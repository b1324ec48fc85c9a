"""Outside-in span tracer for the conformal_hodge layers.

The benchmark wraps the public entry points of each layer from its own
files; the package itself is not edited.  Functions such as ``multiply``
and ``add`` are imported by name into ``disk``, ``mapping``, ``dynamics``
and ``forms``, so wrapping ``series.<name>`` alone would miss most calls:
every ``conformal_hodge`` module namespace that holds the original
function object is rebound to the wrapper, and methods are wrapped on
their class (including aliases such as ``__rmul__ = __mul__``).

A span's self time is its duration minus the durations of its direct
child spans.  A call whose direct parent span has the same name (``subtract``
calling ``add`` inside ``series.elementwise``, ``write_csv`` calling
``atomic_write``) is folded into that parent rather than opening a span.
Spans are recorded only while an op is running, so correctness checks
that call the same functions afterwards are not counted.

A stationary op opens about 3,000 spans, so spans are kept in
memory aggregated per op by (parent, name) edge, and written out by
``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "conformal_hodge"

_ELEMENTWISE = ("add", "subtract", "scale", "conjugate", "wirtinger", "real_part", "imag_part")
_EMIT = ("dumps", "write_json", "write_csv", "format_csv", "atomic_write")


def _n_terms(x):
    """Stored terms of a field, or coefficients of a series (1 for a scalar)."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    return len(x) if hasattr(x, "__len__") else 1


def _pairs_convolve(args, kwargs):
    return _n_terms(args[0]) * _n_terms(args[1])


def _pairs_mul(args, kwargs):
    other = args[1]
    if isinstance(other, (int, float, complex)):
        return 0
    return _n_terms(args[0]) * _n_terms(other)


def _point_terms(args, kwargs):
    points = args[1]
    return getattr(points, "size", 1) * _n_terms(args[0])


# span name -> (module, attribute paths, work-count name, counter, hit tracking)
def span_table(serialization_names):
    parse = ["read_json"] + sorted(n for n in serialization_names if n.endswith("_from_json"))
    emit = list(_EMIT) + sorted(n for n in serialization_names if n.endswith("_to_json"))
    return {
        "series.convolve": ("series", ["convolve"], "pair_products", _pairs_convolve, False),
        "series.HolomorphicSeries.__mul__": (
            "series", ["HolomorphicSeries.__mul__"], "pair_products", _pairs_mul, False),
        "series.HolomorphicSeries.compose": (
            "series", ["HolomorphicSeries.compose"], None, None, False),
        "series.inner_product": ("series", ["inner_product"], None, None, False),
        "series.evaluate_grid": ("series", ["evaluate_grid"], "point_terms", _point_terms, False),
        "series.elementwise": ("series", list(_ELEMENTWISE), None, None, False),
        "disk.poisson_disk": ("disk", ["poisson_disk"], None, None, False),
        "disk.project_con_rule": ("disk", ["project_con_rule"], None, None, False),
        "disk.conformal_decompose": ("disk", ["conformal_decompose"], None, None, False),
        "mapping.ConformalMap.__init__": ("mapping", ["ConformalMap.__init__"], None, None, False),
        "mapping.ConformalMap.min_deriv": ("mapping", ["ConformalMap.min_deriv"], None, None, False),
        "mapping.ConformalMap.check_boundary_injectivity": (
            "mapping", ["ConformalMap.check_boundary_injectivity"], None, None, False),
        "mapping.ConformalMap.compose_with": (
            "mapping", ["ConformalMap.compose_with"], None, None, True),
        "mapping.ConformalMap.gram": ("mapping", ["ConformalMap.gram"], None, None, True),
        "mapping.project_con_mapped": ("mapping", ["project_con_mapped"], None, None, False),
        "mapping.adjoint_dz_mapped": ("mapping", ["adjoint_dz_mapped"], None, None, False),
        "mapping.map_inner_product": ("mapping", ["map_inner_product"], None, None, False),
        "annulus.poisson_annulus": ("annulus", ["poisson_annulus"], None, None, False),
        "forms.hodge_membership": ("forms", ["hodge_membership"], None, None, False),
        "dynamics.geodesic_integrate": ("dynamics", ["geodesic_integrate"], None, None, False),
        "dynamics.geodesic_rhs": ("dynamics", ["geodesic_rhs"], None, None, False),
        "dynamics.geodesic_energy": ("dynamics", ["geodesic_energy"], None, None, False),
        "dynamics.stationary_solve": ("dynamics", ["stationary_solve"], None, None, False),
        "dynamics.stationary_residual": ("dynamics", ["stationary_residual"], None, None, False),
        "serialization.parse": ("serialization", parse, None, None, False),
        "serialization.emit": ("serialization", emit, None, None, False),
        "cli.parse_series_spec": ("cli", ["parse_series_spec"], None, None, False),
        "cli.main": ("cli", ["main"], None, None, False),
    }


class Tracer:
    """Span recorder; install with ``with tracer.installed():``, time ops with ``op()``."""

    def __init__(self):
        self.recording = False
        self._stack = []  # frames [name, child_seconds]
        self.ops = []     # per op: {"wall_s": t, "edges": {(parent, name): [calls, total_s, self_s]}}
        self._edges = None
        self.counts = defaultdict(int)   # "<span>.<count>" -> total over recorded ops
        self.hits = defaultdict(int)     # span -> calls returning an object seen before
        self._seen = defaultdict(weakref.WeakKeyDictionary)  # span -> map -> {id: result}
        self.table = None

    # -- recording ------------------------------------------------------------

    def _close(self, name, duration, child):
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += duration
        edge = self._edges.get((parent, name))
        if edge is None:
            edge = self._edges[(parent, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child

    def _wrap(self, name, fn, count_name, counter, track_hits):
        tracer = self
        count_key = f"{name}.{count_name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.recording or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                tracer._close(name, duration, frame[1])
            if counter is not None:
                tracer.counts[count_key] += counter(args, kwargs)
            if track_hits:
                seen = tracer._seen[name].setdefault(args[0], {})
                if id(result) in seen:
                    tracer.hits[name] += 1
                else:
                    seen[id(result)] = result
            return result

        return wrapper

    def op(self, fn):
        """Run one op with recording on; returns fn's result."""
        self._edges = {}
        self.recording = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - t0
            self.recording = False
            self._stack.clear()
            self.ops.append({"wall_s": wall, "edges": self._edges})

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every span's functions for the duration of the block."""
        import conformal_hodge.cli  # noqa: F401  (loads every module the CLI uses)

        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        ser = modules[f"{PACKAGE}.serialization"]
        self.table = span_table(vars(ser))
        restore = []
        for name, (mod_name, paths, *spec) in self.table.items():
            home = modules[f"{PACKAGE}.{mod_name}"]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    owners = [getattr(home, cls_name)]
                    original = vars(owners[0])[attr]
                else:
                    owners = modules.values()
                    original = vars(home)[path]
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget, *spec))
                else:
                    wrapped = self._wrap(name, original, *spec)
                for owner in owners:
                    for key, val in list(vars(owner).items()):
                        if val is original:
                            restore.append((owner, key, val))
                            setattr(owner, key, wrapped)
        try:
            yield self
        finally:
            for owner, key, val in reversed(restore):
                setattr(owner, key, val)

    # -- results ------------------------------------------------------------------

    def span_totals_per_op(self):
        """Per recorded op: span -> [calls, self_s]."""
        out = []
        for op in self.ops:
            totals = {name: [0, 0.0] for name in self.table}
            for (_, name), (calls, _, self_s) in op["edges"].items():
                totals[name][0] += calls
                totals[name][1] += self_s
            out.append(totals)
        return out

    def dump(self, path):
        """Write the per-op span edges as JSON."""
        ops = [{"wall_s": op["wall_s"],
                "edges": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                          for (p, n), (c, t, s) in op["edges"].items()]}
               for op in self.ops]
        with open(path, "w") as fh:
            json.dump({"ops": ops, "counts": dict(self.counts), "hits": dict(self.hits)}, fh)

