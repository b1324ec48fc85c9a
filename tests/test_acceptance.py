"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import math

import numpy as np

from conformal_hodge import series as s
from conformal_hodge.annulus import annulus_classify, laurent_monomial
from conformal_hodge.catalog import hodge_catalog
from conformal_hodge.disk import (
    adjoint_dz_disk,
    conformal_decompose,
    poisson_disk,
    grad_bar,
    project_con_bergman,
    project_con_gram_oracle,
    project_con_rule,
    projection_property_check,
    sgrad_bar,
)
from conformal_hodge.dynamics import (
    GeodesicState,
    PotentialSpec,
    WaveState,
    geodesic_integrate,
    variation_identity_defect,
    wave_integrate,
    wave_mode_solution,
)
from conformal_hodge.forms import codifferential, exterior_derivative, flat_map, star
from conformal_hodge.mapping import (
    ConformalMap,
    adjoint_dz_mapped,
    map_inner_product,
)
from conformal_hodge.series import HolomorphicSeries, monomial

import oracles

PI = math.pi


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def series_gap(a, b):
    return max(
        (abs(a.coefficient(k) - b.coefficient(k))
         for k in range(max(a.degree, b.degree) + 1)),
        default=0.0,
    )


def test_criterion_1_monomial_projection():
    worst_rule, worst_gram, worst_bergman = 0.0, 0.0, 0.0
    for m in range(9):
        for n in range(9):
            f = s.BivariateField({(m, n): 1.0}, max_degree=m + n)
            rule = project_con_rule(f)
            closed = (
                HolomorphicSeries([0] * (m - n) + [(m - n + 1) / (m + 1)])
                if m >= n
                else HolomorphicSeries([])
            )
            worst_rule = max(worst_rule, series_gap(rule, closed))
            worst_gram = max(worst_gram, series_gap(rule, project_con_gram_oracle(f)))
            worst_bergman = max(worst_bergman, series_gap(rule, project_con_bergman(f)))
    ok = worst_rule == 0.0 and worst_gram <= 1e-12 and worst_bergman <= 1e-6
    report(
        1, ok,
        f"monomial projection m,n<=8: closed-form gap {worst_rule:.1e}, "
        f"gram {worst_gram:.1e} (<=1e-12), kernel quadrature {worst_bergman:.1e} (<=1e-6)",
    )


def test_criterion_2_inner_products():
    worst_closed, worst_quad = 0.0, 0.0
    for m in range(11):
        for n in range(11):
            got = s.inner_product(monomial(m, 0), monomial(n, 0))
            expect = 2 * PI / (m + n + 2) if m == n else 0.0
            worst_closed = max(worst_closed, abs(got - expect))
            oracle = oracles.quad_inner({(m, 0): 1.0}, {(n, 0): 1.0})
            worst_quad = max(worst_quad, abs(got - oracle))
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-10
    report(
        2, ok,
        f"monomial inner products m,n<=10: closed-form gap {worst_closed:.1e}, "
        f"vs polar quadrature {worst_quad:.1e} (<=1e-10)",
    )


def test_criterion_3_adjoint_identity():
    worst_disk = 0.0
    for m in range(11):
        for n in range(11):
            xi, eta = monomial(m, 0), monomial(n, 0)
            lhs = s.inner_product(xi, s.wirtinger(eta, "d_z")).real
            rhs = s.inner_product(
                adjoint_dz_disk(HolomorphicSeries.from_field(xi)).to_field(), eta
            ).real
            worst_disk = max(worst_disk, abs(lhs - rhs))

    mp = ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1]))
    worst_mapped = 0.0
    for j in range(7):
        xi = HolomorphicSeries([0] * j + [1.0])
        adj = adjoint_dz_mapped(mp, xi, degree=10)
        for k in range(7):
            eta = HolomorphicSeries([0] * k + [1.0])
            lhs = map_inner_product(
                mp, mp.compose_with(xi, 24).to_field(),
                mp.compose_with(eta.derivative(), 24).to_field(),
            ).real
            rhs = map_inner_product(
                mp, mp.compose_with(adj, 24).to_field(), mp.compose_with(eta, 24).to_field()
            ).real
            worst_mapped = max(worst_mapped, abs(lhs - rhs))

    scaled = ConformalMap(HolomorphicSeries([0.0, 2.0]))
    area = map_inner_product(scaled, monomial(0, 0), monomial(0, 0)).real
    adj1 = adjoint_dz_mapped(scaled, HolomorphicSeries([1.0]), degree=3)
    hand = abs(area - 4 * PI) + series_gap(adj1, HolomorphicSeries([0, 0.5]))
    ok = worst_disk <= 1e-12 and worst_mapped <= 1e-8 and hand <= 1e-12
    report(
        3, ok,
        f"adjoint identity: disk pairs<=10 {worst_disk:.1e} (<=1e-12), mapped "
        f"z+0.1z^2 deg<=6 {worst_mapped:.1e} (<=1e-8), scaled-disk hand checks {hand:.1e}",
    )


def test_criterion_4_conformal_decomposition():
    rng = np.random.default_rng(2024)
    worst_recon = worst_orth = worst_boundary = worst_agree = 0.0
    for _ in range(100):
        f = s.random_field(rng, 8)
        dec = conformal_decompose(f)
        scale = max(s.norm(f), 1e-30)
        worst_recon = max(worst_recon, dec.residual_norm / scale)
        parts = [p for _, p in dec.parts]
        norms = [s.norm(p) for p in parts]
        for i in range(3):
            for j in range(i + 1, 3):
                if norms[i] > 1e-14 and norms[j] > 1e-14:
                    ip = abs(s.inner_product(parts[i], parts[j]).real)
                    worst_orth = max(worst_orth, ip / (norms[i] * norms[j]))
        mscale = max(
            s.coefficient_norm(dec.multipliers.F),
            s.coefficient_norm(dec.multipliers.G),
            1e-30,
        )
        worst_boundary = max(
            worst_boundary, dec.multipliers.boundary_trace_max() / mscale
        )
        worst_agree = max(worst_agree, dec.closed_form_defect / scale)
    ok = (
        worst_recon <= 1e-10
        and worst_orth <= 1e-10
        and worst_boundary <= 1e-10
        and worst_agree <= 1e-10
    )
    report(
        4, ok,
        f"decomposition over 100 random degree-8 fields: reconstruction "
        f"{worst_recon:.1e}, orthogonality {worst_orth:.1e}, boundary "
        f"{worst_boundary:.1e}, poisson-vs-rule {worst_agree:.1e} (all <=1e-10)",
    )


def test_criterion_5_hodge_catalog():
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
    table_ok = all(hodge_catalog(d) == expected[d] for d in expected)
    c1 = annulus_classify(laurent_monomial(-1, 0, 1.0, r_in=0.5))
    c2 = annulus_classify(laurent_monomial(-1, 0, 1j, r_in=0.5))
    cls_ok = (
        (c1.a4_coeff, c1.a5_coeff) == (0.0, 1.0)
        and (c2.a4_coeff, c2.a5_coeff) == (1.0, 0.0)
        and not c1.a6_part and not c2.a6_part
    )
    report(
        5, table_ok and cls_ok,
        "catalog table matches (disk/annulus/torus/sphere); annulus "
        "classification 1/z -> A5, i/z -> A4 exactly",
    )


def test_criterion_6_wave_equation():
    # single-mode run for first integrals and convergence order; the leapfrog
    # energy oscillation scales like (omega dt)^2/4, so the 1e-6 drift bound
    # constrains the excited frequencies
    state0 = WaveState(HolomorphicSeries([0.3, 1.0]), HolomorphicSeries([]))
    V0 = PotentialSpec.quadratic(0.0)
    traj = wave_integrate(state0, V0, 1e-3, 10000, sample_stride=50)
    worst_mode = 0.0
    for t, x in zip(traj.times, traj.xi):
        for m, x0 in ((0, 0.3), (1, 1.0)):
            exact, _ = wave_mode_solution(m, 0.0, x0, 0.0, t)
            worst_mode = max(worst_mode, abs(x[m] - exact))
    base = traj.integrals[0]
    ref = max(base)
    worst_drift = 0.0
    for rep in traj.integrals:
        for m in range(7):
            worst_drift = max(
                worst_drift, abs(rep[m] - base[m]) / max(base[m], ref)
            )

    # multi-mode accuracy at the same stated tolerance
    multi0 = WaveState(
        HolomorphicSeries([0.5, 1.0, 0.3, 0.2]), HolomorphicSeries([0.1j, 0.0, 0.05])
    )
    V1 = PotentialSpec.quadratic(1.0)
    multi = wave_integrate(multi0, V1, 1e-3, 10000, sample_stride=100)
    worst_multi = 0.0
    for t, x in zip(multi.times, multi.xi):
        for m in range(4):
            exact, _ = wave_mode_solution(
                m, 1.0, multi0.xi.coefficient(m), multi0.xi_t.coefficient(m), t
            )
            worst_multi = max(worst_multi, abs(x[m] - exact))

    def final_error(dt, steps):
        t = wave_integrate(state0, V0, dt, steps, sample_stride=steps)
        exact, _ = wave_mode_solution(1, 0.0, 1.0, 0.0, t.times[-1])
        return abs(t.xi[-1][1] - exact)

    e1, e2 = final_error(1e-3, 10000), final_error(5e-4, 20000)
    order = math.log2(e1 / e2)

    ok = (
        worst_mode <= 1e-4
        and worst_multi <= 1e-4
        and worst_drift <= 1e-6
        and 1.9 <= order <= 2.1
    )
    report(
        6, ok,
        f"wave: closed-form match {worst_mode:.1e} / multi-mode {worst_multi:.1e} "
        f"(<=1e-4), I_m drift {worst_drift:.1e} (<=1e-6), order {order:.2f} (2.0+-0.1)",
    )


def test_criterion_7_geodesic_flow():
    xi0 = HolomorphicSeries([0.08, 0.05])
    st = GeodesicState(ConformalMap.identity(), xi0)
    norm0 = math.sqrt(
        map_inner_product(ConformalMap.identity(), xi0.to_field(), xi0.to_field()).real
    )
    assert norm0 <= 0.2
    traj = geodesic_integrate(st, 1e-3, 1000, sample_stride=100, degree=10, proj_degree=5)
    e0 = traj.energy[0]
    drift = max(abs(e - e0) for e in traj.energy) / e0

    def final(dt, steps):
        t = geodesic_integrate(st, dt, steps, sample_stride=steps, degree=10,
                               proj_degree=5)
        return np.concatenate([t.phi[-1], t.xi[-1]])

    f1, f2, f4 = final(0.1, 10), final(0.05, 20), final(0.025, 40)
    order = math.log2(
        np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f4)
    )

    defect, _ = variation_identity_defect(
        ConformalMap(HolomorphicSeries([0.0, 1.0, 0.1])),
        xi=HolomorphicSeries([0.07, 0.04]),
        eta0=HolomorphicSeries([0.02, 0.05]),
        eta1=HolomorphicSeries([0.0, 0.03]),
    )
    ok = drift <= 1e-6 and 3.7 <= order <= 4.3 and defect <= 1e-7
    report(
        7, ok,
        f"geodesic: energy drift {drift:.1e} (<=1e-6), order {order:.2f} "
        f"(4.0+-0.3), variation identity defect {defect:.1e} (<=1e-7)",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(4096)
    harmonic_ok = True
    for _ in range(20):
        h = oracles.random_series(rng, 8)
        alpha = flat_map(h.to_field())
        if exterior_derivative(alpha).density or codifferential(alpha).value:
            harmonic_ok = False

    star_ok = True
    for _ in range(10):
        alpha = flat_map(s.random_field(rng, 6))
        ss = star(star(alpha))
        if s.coefficient_norm(s.subtract(ss.u_dx, s.scale(alpha.u_dx, -1))) != 0:
            star_ok = False
        if s.coefficient_norm(s.subtract(ss.v_dy, s.scale(alpha.v_dy, -1))) != 0:
            star_ok = False

    consistent = 0
    for trial in range(50):
        psi = HolomorphicSeries(
            [2.5] + list(0.15 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        )
        if trial % 2 == 0:
            F = poisson_disk(s.real_part(s.random_field(rng, 4)))
            G = poisson_disk(s.real_part(s.random_field(rng, 4)))
            f = s.add(grad_bar(F), sgrad_bar(G))
        else:
            f = s.random_field(rng, 5)
        rep = projection_property_check(f, psi, tol=1e-8)
        consistent += rep.consistent
    ok = harmonic_ok and star_ok and consistent == 50
    report(
        8, ok,
        f"properties: flat images of holomorphic fields coefficient-exactly "
        f"harmonic ({harmonic_ok}), star^2 = -Id ({star_ok}), projection "
        f"property consistent on {consistent}/50 pairs",
    )
