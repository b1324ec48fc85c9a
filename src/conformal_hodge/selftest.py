"""Built-in verification suite behind the `check` CLI subcommand.

Each suite exercises one family of cross-checks (independent-route
agreement, adjoint identities, reconstruction, the catalog table,
conservation) and reports its worst observed defect against a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import annulus as ann
from . import dynamics, series
from .catalog import hodge_catalog
from .disk import (
    adjoint_dz_disk,
    conformal_decompose,
    helmholtz_decompose,
    project_con_bergman,
    project_con_gram_oracle,
    project_con_rule,
)
from .mapping import ConformalMap, adjoint_dz_mapped, map_inner_product
from .quadrature import QuadratureSpec
from .series import HolomorphicSeries, inner_product, monomial, norm

# sizes of the suites' fixed problems
PROJECTION_DEGREE = 6
DECOMPOSITION_FIELDS, DECOMPOSITION_DEGREE, DECOMPOSITION_SEED = 20, 6, 7
WAVE_STEPS, WAVE_DT = 2000, 1e-3
GEODESIC_STEPS, GEODESIC_DT = 300, 1e-3


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    metric: float
    threshold: float
    note: str = ""


def _series_gap(a: HolomorphicSeries, b: HolomorphicSeries) -> float:
    n = max(len(a.coeffs), len(b.coeffs))
    return float(np.max(np.abs(a.to_array(n) - b.to_array(n)), initial=0.0))


def suite_projection_three_way(quadrature):
    worst_exact = 0.0
    worst_quad = 0.0
    for m in range(PROJECTION_DEGREE + 1):
        for n in range(PROJECTION_DEGREE + 1 - m):
            f = monomial(m, n)
            rule = project_con_rule(f)
            gram = project_con_gram_oracle(f)
            berg = project_con_bergman(f, quadrature=quadrature)
            worst_exact = max(worst_exact, _series_gap(rule, gram))
            worst_quad = max(worst_quad, _series_gap(rule, berg))
    degraded = quadrature < QuadratureSpec()
    quad_threshold = 1e-3 if degraded else 1e-6
    note = "degraded quadrature, relaxed threshold" if degraded else ""
    results = [
        SuiteResult("projection rule vs gram oracle", worst_exact <= 1e-12, worst_exact, 1e-12),
        SuiteResult(
            "projection rule vs kernel quadrature",
            worst_quad <= quad_threshold,
            worst_quad,
            quad_threshold,
            note,
        ),
    ]
    return results


def suite_adjoint_identities():
    worst = 0.0
    for m in range(9):
        for n in range(9):
            xi, eta = monomial(m, 0), monomial(n, 0)
            lhs = inner_product(xi, series.wirtinger(eta, "d_z")).real
            rhs = inner_product(
                adjoint_dz_disk(HolomorphicSeries.from_field(xi)).to_field(), eta
            ).real
            worst = max(worst, abs(lhs - rhs))
    out = [SuiteResult("disk adjoint identity", worst <= 1e-12, worst, 1e-12)]

    mapping = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
    worst_mapped = 0.0
    for j in range(5):
        xi = HolomorphicSeries([0.0] * j + [1.0])
        adj = adjoint_dz_mapped(mapping, xi, degree=8)
        for k in range(5):
            eta = HolomorphicSeries([0.0] * k + [1.0])
            lhs = map_inner_product(
                mapping,
                mapping.compose_with(xi).to_field(),
                mapping.compose_with(eta.derivative()).to_field(),
            ).real
            rhs = map_inner_product(
                mapping,
                mapping.compose_with(adj).to_field(),
                mapping.compose_with(eta).to_field(),
            ).real
            worst_mapped = max(worst_mapped, abs(lhs - rhs))
    out.append(
        SuiteResult("mapped adjoint identity", worst_mapped <= 1e-8, worst_mapped, 1e-8)
    )
    return out


def _worst_cross_pairing(gram):
    """max |Re <<p_i, p_j>>| / (|p_i| |p_j|) over i < j, from the parts' Gram matrix."""
    norms = [max(math.sqrt(max(row[i], 0.0)), 1e-30) for i, row in enumerate(gram)]
    return max((abs(gram[i][j]) / (norms[i] * norms[j])
                for i in range(len(gram)) for j in range(i + 1, len(gram))), default=0.0)


def _relative_trace(multipliers):
    """The largest boundary trace of the multipliers, relative to their coefficient norm."""
    scale = max(series.coefficient_norm(multipliers.F), series.coefficient_norm(multipliers.G),
                1e-30)
    return multipliers.boundary_trace_max() / scale


def suite_decomposition():
    """The conformal split and the Helmholtz split of random fields: each part
    sum, Gram matrix of the parts and multiplier trace, as the splits report them."""
    rng = np.random.default_rng(DECOMPOSITION_SEED)
    worst_recon = 0.0
    worst_orth = 0.0
    worst_boundary = 0.0
    worst_rule = 0.0
    for _ in range(DECOMPOSITION_FIELDS):
        f = series.random_field(rng, DECOMPOSITION_DEGREE)
        scale = max(norm(f), 1e-30)
        dec = conformal_decompose(f)
        helm = helmholtz_decompose(f)
        worst_recon = max(worst_recon, dec.residual_norm / scale, helm.residual_norm / scale)
        worst_orth = max(worst_orth, _worst_cross_pairing(dec.orthogonality),
                         _worst_cross_pairing(helm.orthogonality))
        worst_boundary = max(worst_boundary, _relative_trace(dec.multipliers),
                             _relative_trace(helm.multipliers))
        worst_rule = max(worst_rule, dec.closed_form_defect / scale)
    return [
        SuiteResult("decomposition reconstruction", worst_recon <= 1e-10, worst_recon, 1e-10),
        SuiteResult("decomposition orthogonality", worst_orth <= 1e-10, worst_orth, 1e-10),
        SuiteResult("multiplier boundary traces", worst_boundary <= 1e-10, worst_boundary, 1e-10),
        SuiteResult("poisson vs closed-form projection", worst_rule <= 1e-10, worst_rule, 1e-10),
    ]


def suite_catalog():
    expected = {
        "disk": {"A1": "infinite", "A2": "infinite", "A3": "zero", "A4": "zero",
                 "A5": "zero", "A6": "infinite"},
        "annulus": {"A1": "infinite", "A2": "infinite", "A3": "zero",
                    "A4": "finite(1)", "A5": "finite(1)", "A6": "infinite"},
        "torus": {"A1": "infinite", "A2": "infinite", "A3": "finite(2)",
                  "A4": "zero", "A5": "zero", "A6": "zero"},
        "sphere": {"A1": "infinite", "A2": "infinite", "A3": "zero",
                   "A4": "zero", "A5": "zero", "A6": "zero"},
    }
    ok = all(hodge_catalog(d) == expected[d] for d in expected)
    cls_1z = ann.annulus_classify(ann.laurent_monomial(-1, 0, 1.0, r_in=0.5))
    cls_iz = ann.annulus_classify(ann.laurent_monomial(-1, 0, 1j, r_in=0.5))
    ok = ok and cls_1z.a5_coeff == 1.0 and cls_1z.a4_coeff == 0.0
    ok = ok and cls_iz.a4_coeff == 1.0 and cls_iz.a5_coeff == 0.0
    return [SuiteResult("hodge catalog table", ok, 0.0 if ok else 1.0, 0.5)]


def suite_wave():
    state0 = dynamics.WaveState(HolomorphicSeries([0.0, 1.0]), HolomorphicSeries([]))
    traj = dynamics.wave_integrate(
        state0, dynamics.PotentialSpec.quadratic(0.0), WAVE_DT, WAVE_STEPS, sample_stride=10
    )
    worst_mode = 0.0
    for t, x in zip(traj.times, traj.xi):
        exact, _ = dynamics.wave_mode_solution(1, 0.0, 1.0, 0.0, t)
        worst_mode = max(worst_mode, abs(x[1] - exact))
    i1 = [integrals[1] for integrals in traj.integrals]
    drift = max(abs(v - i1[0]) for v in i1) / i1[0]
    return [
        SuiteResult("wave vs closed form", worst_mode <= 1e-4, worst_mode, 1e-4),
        SuiteResult("wave first-integral drift", drift <= 1e-6, drift, 1e-6),
    ]


def suite_geodesic():
    state0 = dynamics.GeodesicState(ConformalMap.identity(), HolomorphicSeries([0.1]))
    traj = dynamics.geodesic_integrate(
        state0, GEODESIC_DT, GEODESIC_STEPS, sample_stride=30, degree=8, proj_degree=4
    )
    e0 = traj.energy[0]
    drift = max(abs(e - e0) for e in traj.energy) / max(e0, 1e-30)
    return [SuiteResult("geodesic energy drift", drift <= 1e-6, drift, 1e-6)]


def run_self_test(quadrature):
    """Run every suite at the given kernel QuadratureSpec; returns the SuiteResult rows."""
    return (suite_projection_three_way(quadrature)
            + suite_adjoint_identities()
            + suite_decomposition()
            + suite_catalog()
            + suite_wave()
            + suite_geodesic())


def format_report(results):
    width = max(len(r.name) for r in results) + 2
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        lines.append(
            f"{status}  {r.name:<{width}} metric={r.metric:.3e} "
            f"threshold={r.threshold:.1e}{note}"
        )
    failed = [r.name for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} suites passed"
        + (f"; failing: {', '.join(failed)}" if failed else "")
    )
    return "\n".join(lines)
