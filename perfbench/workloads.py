"""The benchmark's three workloads: seeded inputs, CLI argument lists, checks.

Inputs are drawn with the standard-library ``random`` module so that a
worker can write the cold op's input files before it imports numpy or
``conformal_hodge``; the import is part of the measured set-up time.

Each op is a list of CLI argument vectors run back to back, plus a check
that reads the outputs after the op's timer has stopped.  A check returns
a list of problems; an empty list means the op's outputs are correct.
Every tolerance below is fixed and independent of the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Op:
    argvs: list          # CLI argument vectors, run in order inside one timer
    outputs: list        # files the op writes; removed before it runs
    check: object        # callable() -> list of problem strings
    map_key: object = None  # identifies the op's map, where it has one


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj))


def _series_json(coeffs):
    return {
        "max_degree": len(coeffs) - 1,
        "terms": [{"m": k, "n": 0, "re": c.real, "im": c.imag}
                  for k, c in enumerate(coeffs) if c != 0],
    }


def _map_json(coeffs):
    return {"coeffs": [[c.real, c.imag] for c in coeffs]}


def _uniform_disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    return complex(r * math.cos(2 * math.pi * rng.random()),
                   r * math.sin(2 * math.pi * rng.random()))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- geodesic -------------------------------------------------------------------

GEODESIC_XI_SCALES = (0.08, 0.05, 0.02, 0.01, 0.01, 0.005, 0.003, 0.002)
GEODESIC_MAX_DRIFT = 1e-5
GEODESIC_MIN_DERIV = 1e-3


def geodesic_op(rng, seed, work: Path) -> Op:
    a = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
    xi = [s * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for s in GEODESIC_XI_SCALES]
    map_path, xi_path = work / "map.json", work / "xi0.json"
    csv_path, summary_path = work / "traj.csv", work / "summary.json"
    _write_json(map_path, _map_json([0j, 1 + 0j, a]))
    _write_json(xi_path, _series_json(xi))
    argv = ["geodesic", "--map", str(map_path), "--xi0", str(xi_path),
            "--dt", "1e-3", "--steps", "10", "--degree", "16",
            "--out", str(csv_path), "--summary", str(summary_path)]

    def check():
        problems = []
        summary = _read_json(summary_path)
        if not summary["energy_rel_drift"] <= GEODESIC_MAX_DRIFT:
            problems.append(f"energy_rel_drift {summary['energy_rel_drift']:.3e}")
        if not summary["min_deriv_min"] >= GEODESIC_MIN_DERIV:
            problems.append(f"min_deriv_min {summary['min_deriv_min']:.3e}")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != 11:
            problems.append(f"{len(rows)} trajectory rows, expected 11")
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            problems.append("non-finite value in the trajectory CSV")
        return problems

    return Op([argv], [csv_path, summary_path], check)


# -- stationary -----------------------------------------------------------------

STATIONARY_MAP_POOL = 4
STATIONARY_MAX_RESIDUAL = 1e-8


def _stationary_pool(seed):
    rng = random.Random(f"stationary/{seed}/pool")
    return [[0j, 1 + 0j, _uniform_disk(rng, 0.1), _uniform_disk(rng, 0.03)]
            for _ in range(STATIONARY_MAP_POOL)]


def stationary_op(rng, seed, work: Path) -> Op:
    k = rng.randrange(STATIONARY_MAP_POOL)
    map_coeffs = _stationary_pool(seed)[k]
    c = rng.uniform(-3.0, 1.0)
    init = [complex(rng.uniform(-0.5, 0.5), 0.0) for _ in range(3)]
    map_path, init_path, out_path = work / "map.json", work / "init.json", work / "result.json"
    _write_json(map_path, _map_json(map_coeffs))
    _write_json(init_path, _series_json(init))
    argv = ["stationary", "--map", str(map_path), "--c", repr(c),
            "--init", str(init_path), "--out", str(out_path)]

    def check():
        from conformal_hodge import dynamics, serialization as ser
        from conformal_hodge.series import coefficient_norm

        result = _read_json(out_path)
        if not result["converged"]:
            return [f"not converged (residual {result['residual_norm']:.3e})"]
        xi = ser.series_from_json(result["xi"])
        mapping = ser.map_from_json(_read_json(map_path))
        r = dynamics.stationary_residual(xi, dynamics.PotentialSpec.quadratic(c), domain=mapping)
        rnorm = coefficient_norm(r)
        if not rnorm <= STATIONARY_MAX_RESIDUAL:
            return [f"recomputed residual {rnorm:.3e}"]
        return []

    return Op([argv], [out_path], check, map_key=k)


# -- fields ---------------------------------------------------------------------

FIELDS_DEGREE = 32
FIELDS_SPARSE_TERMS = 32
FIELDS_LAURENT_BAND = 6
FIELDS_R_IN = 0.5
FIELDS_REL_TOL = 1e-10


def _gauss(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _field_terms(coeffs):
    return [{"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in sorted(coeffs.items())]


def fields_op(rng, seed, work: Path) -> Op:
    D = FIELDS_DEGREE
    slots = [(m, n) for m in range(D + 1) for n in range(D + 1 - m)]
    dense = {idx: _gauss(rng) for idx in slots}
    sparse = {idx: _gauss(rng) for idx in rng.sample(slots, FIELDS_SPARSE_TERMS)}
    band = range(-FIELDS_LAURENT_BAND, FIELDS_LAURENT_BAND + 1)
    laurent = {(m, n): _gauss(rng) for m in band for n in band}
    dense_path, sparse_path, laurent_path = (
        work / "dense.json", work / "sparse.json", work / "laurent.json")
    dec_path, cls_disk_path, cls_ann_path = (
        work / "dec.json", work / "cls_disk.json", work / "cls_annulus.json")
    _write_json(dense_path, {"max_degree": D, "terms": _field_terms(dense)})
    _write_json(sparse_path, {"max_degree": D, "terms": _field_terms(sparse)})
    _write_json(laurent_path, {"r_in": FIELDS_R_IN, "band_limit": FIELDS_LAURENT_BAND,
                               "terms": _field_terms(laurent)})
    argvs = [
        ["decompose", "--kind", "conformal", "--in", str(dense_path), "--out", str(dec_path)],
        ["classify", "--in", str(sparse_path), "--out", str(cls_disk_path)],
        ["classify", "--r-in", repr(FIELDS_R_IN), "--in", str(laurent_path),
         "--out", str(cls_ann_path)],
    ]

    def check():
        from conformal_hodge import serialization as ser, series
        from conformal_hodge.disk import project_con_rule

        tol = FIELDS_REL_TOL
        problems = []
        f = ser.field_from_json(_read_json(dense_path))
        dec = _read_json(dec_path)
        fnorm = series.norm(f)
        conformal = ser.field_from_json(dec["conformal"])
        defect = series.norm(series.subtract(conformal, project_con_rule(f).to_field()))
        if not defect <= tol * fnorm:
            problems.append(f"conformal part differs from the rule projection by {defect:.3e}")
        if not dec["residual_norm"] <= tol * fnorm:
            problems.append(f"reconstruction residual {dec['residual_norm']:.3e}")
        orth = dec["orthogonality"]
        off = max(abs(orth[i][j]) for i in range(len(orth)) for j in range(len(orth)) if i != j)
        if not off <= tol * fnorm**2:
            problems.append(f"off-diagonal orthogonality {off:.3e}")
        F, G = ser.field_from_json(dec["F"]), ser.field_from_json(dec["G"])
        trace = max(series.boundary_max(F), series.boundary_max(G))
        scale = max(series.coefficient_norm(F), series.coefficient_norm(G))
        if not trace <= tol * scale:
            problems.append(f"multiplier boundary trace {trace:.3e} (scale {scale:.3e})")
        for path in (cls_disk_path, cls_ann_path):
            report = _read_json(path)
            if "unresolved" in report["labels"] + report["inconclusive"]:
                problems.append(f"{path.name}: classification unresolved")
        return problems

    return Op(argvs, [dec_path, cls_disk_path, cls_ann_path], check)


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: object
    nominal_op_s: float  # op cost measured at commit 8ce9dde; sizes the traced phase
    expect_hit: tuple    # spans that must be called at least once per op
    expect_idle: tuple   # span prefixes that must never be called


_IO = ("serialization.parse", "serialization.emit", "cli.main")

WORKLOADS = {
    "geodesic": Workload(
        geodesic_op, 0.22,
        expect_hit=_IO + (
            "cli.parse_series_spec",
            "series.convolve", "series.HolomorphicSeries.__mul__",
            "series.HolomorphicSeries.compose", "series.evaluate_grid",
            "mapping.ConformalMap.__init__", "mapping.ConformalMap.min_deriv",
            "mapping.ConformalMap.check_boundary_injectivity",
            "mapping.ConformalMap.compose_with", "mapping.ConformalMap.gram",
            "mapping.project_con_mapped", "mapping.adjoint_dz_mapped",
            "mapping.map_inner_product",
            "dynamics.geodesic_integrate", "dynamics.geodesic_rhs",
            "dynamics.geodesic_energy"),
        expect_idle=("disk.", "forms.", "annulus.", "dynamics.stationary_"),
    ),
    "stationary": Workload(
        stationary_op, 0.075,
        expect_hit=_IO + (
            "cli.parse_series_spec",
            "series.HolomorphicSeries.__mul__", "series.HolomorphicSeries.compose",
            "mapping.ConformalMap.__init__", "mapping.ConformalMap.compose_with",
            "mapping.ConformalMap.gram", "mapping.project_con_mapped",
            "mapping.adjoint_dz_mapped",
            "dynamics.stationary_solve", "dynamics.stationary_residual"),
        expect_idle=("disk.", "forms.", "annulus.", "dynamics.geodesic_"),
    ),
    "fields": Workload(
        fields_op, 0.1,
        expect_hit=_IO + (
            "series.inner_product", "series.elementwise", "series.evaluate_grid",
            "disk.poisson_disk", "disk.project_con_rule", "disk.conformal_decompose",
            "annulus.poisson_annulus", "forms.hodge_membership"),
        expect_idle=("mapping.", "dynamics.", "series.HolomorphicSeries.compose"),
    ),
}


def make_op(workload, seed, index, work: Path) -> Op:
    """Write the inputs of op `index` (an int, or a label such as 'cold') and return it."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload].make(rng, seed, work)
