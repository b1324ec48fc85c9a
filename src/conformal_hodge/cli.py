"""Command-line front end.

Subcommands: project, decompose, adjoint, classify, catalog, stationary,
wave, geodesic, check.  Exit codes: 0 success, 1 failed self-test, 2
input/parse error, 3 numerical failure (non-convergence, instability,
degeneracy), 4 incompatible domain/subcommand.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from . import dynamics, forms, serialization as ser
from .catalog import DOMAINS, hodge_catalog
from .disk import (
    adjoint_dz_disk,
    conformal_decompose,
    helmholtz_decompose,
    project_con_rule,
    symplectic_decompose,
)
from .dynamics import (
    GeodesicDegeneracyError,
    GeodesicState,
    IntegrationInstabilityError,
    PotentialSpec,
    WaveState,
)
from .mapping import ConformalMap, EmbeddingError, adjoint_dz_mapped, project_con_mapped
from .quadrature import QuadratureSpec
from .selftest import format_report, run_self_test
from .series import DEFAULT_MAX_DEGREE, HolomorphicSeries
from .torus import torus_project_con

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INCOMPATIBLE = 4

QUADRATURE_LIMIT = 1024  # the largest `check --quadrature` count, radial or angular

class InputError(Exception):
    pass


class IncompatibleError(Exception):
    pass


# -- small parsers ---------------------------------------------------------------


def parse_domain(spec):
    """'disk' | 'map:<json-path>' | 'annulus:<r_in>' | 'torus' -> (kind, payload)."""
    if spec == "disk":
        return ("disk", None)
    if spec == "torus":
        return ("torus", None)
    if spec.startswith("map:"):
        path = spec[4:]
        return ("map", ser.map_from_json(ser.read_json(path)))
    if spec.startswith("annulus:"):
        try:
            r_in = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad annulus inner radius in {spec!r}") from exc
        if not 0.0 < r_in < 1.0:
            raise InputError("annulus inner radius must lie in (0, 1)")
        return ("annulus", r_in)
    raise InputError(
        f"unknown domain {spec!r}; expected disk, torus, map:<path>, annulus:<r_in>"
    )


def _split_top_level(s):
    """Terms of a sum, cut before each + or - outside parentheses; each keeps its sign.

    A sign right after an exponent's e (1e-3) belongs to the number.
    """
    parts, depth, cur = [], 0, ""
    for ch in s:
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and cur and cur[-1] not in "eE":
            parts.append(cur)
            cur = ""
        cur += ch
    parts.append(cur)
    return parts


_TERM_RE = re.compile(r"^(?:(?P<coef>.+?)\*)?(?P<z>z(?:\^(?P<pow>\d+))?)$")


def parse_series_spec(spec):
    """A path ending in .json, or an expression like 'z', '0.5', '0.3*z^2 + 1', '1 - z'.

    Only a spec that does not parse as an expression is read as an existing path.
    """
    spec = spec.strip()
    if spec.endswith(".json"):
        return ser.series_from_json(ser.read_json(spec))
    try:
        return _parse_expression(spec)
    except InputError:
        if os.path.exists(spec):
            return ser.series_from_json(ser.read_json(spec))
        raise


def _parse_expression(spec):
    text = spec.replace(" ", "")
    try:
        coeffs = {0: complex(text)}
    except ValueError:
        coeffs = {}
        for term in _split_top_level(text):
            negative = term.startswith("-")
            if term[:1] in ("+", "-"):
                term = term[1:]
            if not term:
                raise InputError(f"empty term in series expression {spec!r}")
            m = _TERM_RE.match(term)
            if m and m.group("z"):
                digits = (m.group("pow") or "1").lstrip("0") or "0"
                # compare lengths first: no int() of a long digit string, no list of that size
                if len(digits) > len(str(ser.SIZE_LIMIT)) or int(digits) > ser.SIZE_LIMIT:
                    raise InputError(f"powers in {spec!r} must be from 0 to {ser.SIZE_LIMIT}")
                power = int(digits)
                coef_text = m.group("coef")
                coef = 1.0 + 0j
                if coef_text:
                    try:
                        coef = complex(coef_text.strip("()"))
                    except ValueError as exc:
                        raise InputError(f"bad coefficient {coef_text!r} in {spec!r}") from exc
            else:
                power = 0
                try:
                    coef = complex(term.strip("()"))
                except ValueError as exc:
                    raise InputError(f"cannot parse term {term!r} in {spec!r}") from exc
            coeffs[power] = coeffs.get(power, 0j) + (-coef if negative else coef)
    if not all(cmath.isfinite(c) for c in coeffs.values()):
        raise InputError(f"non-finite coefficient in series expression {spec!r}")
    return HolomorphicSeries([coeffs.get(k, 0j) for k in range(max(coeffs) + 1)])


_CONFIG_KEYS = ("dt", "steps", "sample_stride", "degree", "tol")
_INTEGER_CONFIG_KEYS = ("steps", "sample_stride", "degree")


def _apply_config(args):
    """Fold --map/--r-in into the domain selector and merge the JSON config.

    Explicit flags win; config values fill options left unset, and the
    documented defaults cover the rest.
    """
    if getattr(args, "map", None):
        args.domain = f"map:{args.map}"
    if getattr(args, "r_in", None) is not None:
        args.domain = f"annulus:{args.r_in}"
    path = getattr(args, "config", None)
    if path:
        cfg = ser.read_json(path)
        if not isinstance(cfg, dict):
            raise InputError("config JSON must be an object")
        unknown = set(cfg) - {key for key in _CONFIG_KEYS if hasattr(args, key)}
        if unknown:
            raise InputError(f"config keys unknown to {args.command}: {sorted(unknown)}")
        for key, val in cfg.items():
            val = ser._number(val, f"config value {key!r}", key in _INTEGER_CONFIG_KEYS)
            if getattr(args, key) is None:
                setattr(args, key, val)
    for key, default in (("degree", DEFAULT_MAX_DEGREE), ("tol", 1e-10)):
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    for key in ("dt", "steps"):
        if hasattr(args, key) and getattr(args, key) is None:
            raise InputError(f"--{key} is required (flag or config JSON)")


def _check_numeric(args):
    for key in ("dt", "c", "tol"):
        value = getattr(args, key, None)
        if value is not None and not math.isfinite(value):
            raise InputError(f"{key} must be finite")
    if getattr(args, "dt", None) is not None and args.dt <= 0:
        raise InputError("dt must be positive")
    if getattr(args, "steps", None) is not None and args.steps < 1:
        raise InputError("steps must be at least 1")
    stride = getattr(args, "sample_stride", None)
    if stride is not None and stride < 1:
        raise InputError("sample-stride must be at least 1")
    for key in ("max_m", "max_iter"):
        if getattr(args, key, 0) < 0:
            raise InputError(f"{key.replace('_', '-')} must be non-negative")
    if getattr(args, "max_m", 0) > ser.SIZE_LIMIT:
        raise InputError(f"max-m must be at most {ser.SIZE_LIMIT}")
    degree = getattr(args, "degree", None)
    if degree is not None and not 1 <= degree <= ser.DEGREE_CAP:
        raise InputError(f"degree must lie in [1, {ser.DEGREE_CAP}]")
    tol = getattr(args, "tol", None)
    if tol is not None and tol <= 0:
        raise InputError("tol must be positive")


def _emit(args, obj):
    text = ser.dumps(obj)
    if getattr(args, "out", None):
        ser.atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


# -- subcommand implementations ----------------------------------------------------


def cmd_project(args):
    kind, payload = args.domain
    if kind == "torus":
        result = torus_project_con(ser.torus_from_json(ser.read_json(args.input)))
        _emit(args, {"c_theta": result.c_theta, "c_phi": result.c_phi,
                     "residual": ser.torus_to_json(result.residual)})
        return EXIT_OK
    f = ser.field_from_json(ser.read_json(args.input))
    if kind == "disk":
        _emit(args, ser.series_to_json(project_con_rule(f)))
    else:
        _emit(args, ser.series_to_json(project_con_mapped(payload, f, degree=args.degree)))
    return EXIT_OK


def cmd_decompose(args):
    f = ser.field_from_json(ser.read_json(args.input))
    dec = {
        "conformal": conformal_decompose,
        "helmholtz": helmholtz_decompose,
        "symplectic": symplectic_decompose,
    }[args.kind](f)
    _emit(args, ser.decomposition_to_json(dec))
    return EXIT_OK


def cmd_adjoint(args):
    kind, payload = args.domain
    h = ser.series_from_json(ser.read_json(args.input))
    if kind == "disk":
        out = adjoint_dz_disk(h, max_degree=args.degree)
    else:
        out = adjoint_dz_mapped(payload, h, degree=args.degree)
    _emit(args, ser.series_to_json(out))
    return EXIT_OK


def cmd_classify(args):
    kind, payload = args.domain
    data = ser.read_json(args.input)
    if kind == "disk":
        f = ser.field_from_json(data)
    else:
        if not isinstance(data, dict):
            raise ser.FormatError("laurent JSON must be an object")
        data.setdefault("r_in", payload)
        f = ser.laurent_from_json(data)
        if f.r_in != payload:
            raise InputError("r_in in the field JSON disagrees with the domain selector")
        if f.table.ndim == 3:  # the annulus Poisson solve takes no log levels on its right-hand side
            raise InputError("classify takes an annulus field without log levels")
    report = forms.hodge_membership(f, tol=args.tol)
    extra = {}
    if kind == "annulus" and f.antiholomorphic_norm() == 0.0:
        # a conformal field is its own harmonic part: its raw coordinates on
        # i/z and 1/z are the A5 and A4 coordinates of its 1-form image
        extra = {"a4_coeff": report.coordinates["A5"], "a5_coeff": report.coordinates["A4"]}
    _emit(args, {**dataclasses.asdict(report), **extra})
    return EXIT_OK


def cmd_catalog(args):
    if args.domain not in DOMAINS:
        raise IncompatibleError(f"catalog domains are {', '.join(DOMAINS)}")
    _emit(args, {"domain": args.domain, "dims": hodge_catalog(args.domain)})
    return EXIT_OK


def cmd_stationary(args):
    _, payload = args.domain  # None on the disk
    V = PotentialSpec.quadratic(args.c)
    result = dynamics.stationary_solve(V, parse_series_spec(args.init), tol=args.tol,
                                       max_iter=args.max_iter, degree=args.degree,
                                       domain=payload)
    _emit(args, {
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "xi": ser.series_to_json(result.xi),
    })
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _relative_drifts(traj):
    i0 = traj.integrals[0]
    ref = max(max(i0), 1e-300)
    return [max(abs(vals[m] - i0[m]) for vals in traj.integrals) / max(i0[m], ref * 1e-12)
            for m in range(len(i0))]


def _observed_order(finals):
    """log2(e1/e2) from the final states at dt, dt/2 and dt/4, or None when e2 = 0."""
    e1 = float(np.linalg.norm(finals[0] - finals[1]))
    e2 = float(np.linalg.norm(finals[1] - finals[2]))
    return math.log2(e1 / e2) if e2 > 0 else None


def _write_trajectory(args, run, table, final_state):
    """Run, write the CSV to --out and the summary to --summary (default: stdout).

    run(dt, steps, stride) integrates; table(traj) gives the CSV header, its
    rows and the command's own summary entries.  --halve-dt reruns at dt/2
    and dt/4 and adds the observed order of final_state(traj), the run at dt
    being the one written.  Both texts
    are built before either is written, so a non-finite value writes nothing.
    """
    traj = run(args.dt, args.steps, args.sample_stride or max(args.steps // 1000, 1))
    header, rows, summary = table(traj)
    csv_text = ser.format_csv(header, rows)
    summary.update(dt=args.dt, steps=args.steps, final_time=traj.times[-1])
    if args.halve_dt:
        summary["order"] = _observed_order([final_state(traj)] + [
            final_state(run(args.dt / k, args.steps * k, args.steps * k)) for k in (2, 4)
        ])
    summary_text = ser.dumps(summary)
    for path, text in ((args.out, csv_text), (args.summary, summary_text)):
        if path:
            ser.atomic_write(path, text)
        else:
            sys.stdout.write(text)
    return EXIT_OK


def _complex_columns(name, n):
    return [x for k in range(n) for x in (f"{name}{k}_re", f"{name}{k}_im")]


def cmd_wave(args):
    xi0 = parse_series_spec(args.xi0)
    xidot0 = parse_series_spec(args.xidot0) if args.xidot0 else HolomorphicSeries([])
    V = PotentialSpec.quadratic(args.c)

    def run(dt, steps, stride):
        return dynamics.wave_integrate(
            WaveState(xi0, xidot0), V, dt, steps, sample_stride=stride, max_m=args.max_m
        )

    def table(traj):
        header = ["t"] + _complex_columns("xi", len(traj.xi[0]))
        header += [f"I_{m}" for m in range(args.max_m + 1)]
        rows = np.column_stack([traj.times, np.array(traj.xi).view(float), traj.integrals])
        return header, rows, {"first_integral_max_rel_drift": max(_relative_drifts(traj))}

    return _write_trajectory(args, run, table, lambda traj: traj.xi[-1])


def cmd_geodesic(args):
    kind, payload = args.domain
    mapping = ConformalMap.identity() if kind == "disk" else payload
    xi0 = parse_series_spec(args.xi0)

    def run(dt, steps, stride):
        return dynamics.geodesic_integrate(
            GeodesicState(mapping, xi0), dt, steps, sample_stride=stride, degree=args.degree
        )

    def table(traj):
        header = ["t"] + _complex_columns("phi", len(traj.phi[0]))
        header += _complex_columns("xi", len(traj.xi[0])) + ["energy", "min_deriv"]
        rows = np.column_stack([traj.times, np.array(traj.phi).view(float),
                                np.array(traj.xi).view(float), traj.energy, traj.min_deriv])
        e0 = traj.energy[0]
        return header, rows, {
            "energy_rel_drift": max(abs(e - e0) for e in traj.energy) / max(e0, 1e-300),
            "min_deriv_min": min(traj.min_deriv),
        }

    return _write_trajectory(
        args, run, table, lambda traj: np.concatenate([traj.phi[-1], traj.xi[-1]])
    )


def cmd_check(args):
    quad = QuadratureSpec()
    if args.quadrature:
        try:
            nr, nt = args.quadrature.lower().split("x")
            quad = QuadratureSpec(int(nr), int(nt))
        except ValueError as exc:
            raise InputError("quadrature must look like 64x128") from exc
        if not 1 <= min(quad) <= max(quad) <= QUADRATURE_LIMIT:
            raise InputError(f"quadrature counts must lie in [1, {QUADRATURE_LIMIT}]")
    results = run_self_test(quad)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument that starts with '-' and a digit, or '-.' and a digit, is a
    value (a negative number in any spelling, such as -7.6e-05); argparse's
    own pattern has no exponent.  No option name looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged.

    The subparsers are of the same class as the parser.
    """
    p = _Parser(
        prog="conformal-hodge",
        description="Spectral calculus for conformal vector fields on planar domains",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, domains):
        # main resolves --domain and rejects kinds outside `domains` (exit 4)
        sp.add_argument("--domain", default="disk",
                        help="disk | map:<json> | annulus:<r_in> | torus")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.set_defaults(domains=domains)

    def numeric(sp, dt=False):
        sp.add_argument("--config", help="JSON with {dt, steps, sample_stride, degree, tol}")
        if dt:
            sp.add_argument("--dt", type=float, default=None)
            sp.add_argument("--steps", type=int, default=None)
            sp.add_argument("--sample-stride", type=int, default=None)

    sp = sub.add_parser("project", help="project a field onto the conformal subspace")
    common(sp, ("disk", "map", "torus"))
    sp.add_argument("--in", dest="input", required=True, help="field JSON path")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--map", help="shorthand for --domain map:<path>")
    numeric(sp)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("decompose", help="orthogonal decomposition with multipliers")
    common(sp, ("disk",))
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--kind", choices=("conformal", "helmholtz", "symplectic"),
                    default="conformal")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("adjoint", help="adjoint of d/dz applied to a conformal field")
    common(sp, ("disk", "map"))
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--map", help="shorthand for --domain map:<path>")
    numeric(sp)
    sp.set_defaults(func=cmd_adjoint)

    sp = sub.add_parser("classify", help="six-space membership labels for a field")
    common(sp, ("disk", "annulus"))
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--r-in", type=float, default=None,
                    help="shorthand for --domain annulus:<r_in>")
    numeric(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("catalog", help="subspace dimensions for a model domain")
    sp.add_argument("--domain", required=True, help="disk | annulus | torus | sphere")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("stationary", help="solve the stationary conformal problem")
    common(sp, ("disk", "map"))
    sp.add_argument("--c", type=float, default=0.0, help="quadratic potential constant")
    sp.add_argument("--init", default="0", help="initial series (expression or JSON)")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=50)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--map", help="shorthand for --domain map:<path>")
    numeric(sp)
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("wave", help="integrate the conformal wave equation")
    common(sp, ("disk",))
    sp.add_argument("--c", type=float, default=0.0)
    sp.add_argument("--xi0", required=True, help="initial series (expression or JSON)")
    sp.add_argument("--xidot0", default=None)
    sp.add_argument("--max-m", type=int, default=6)
    sp.add_argument("--halve-dt", action="store_true",
                    help="also run dt/2 and dt/4 and report the observed order")
    sp.add_argument("--summary", help="write the summary JSON here")
    numeric(sp, dt=True)
    sp.set_defaults(func=cmd_wave)

    sp = sub.add_parser("geodesic", help="integrate the conformal embedding flow")
    common(sp, ("disk", "map"))
    sp.add_argument("--xi0", required=True)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--map", help="shorthand for --domain map:<path>")
    sp.add_argument("--halve-dt", action="store_true")
    sp.add_argument("--summary")
    numeric(sp, dt=True)
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("check", help="run the built-in verification suites")
    sp.add_argument("--quadrature", help="kernel quadrature, e.g. 64x128 or 8x16")
    sp.set_defaults(func=cmd_check)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT
    try:
        _apply_config(args)
        _check_numeric(args)
        if hasattr(args, "domains"):
            args.domain = parse_domain(args.domain)
            if args.domain[0] not in args.domains:
                raise IncompatibleError(
                    f"{args.command} supports the domains {', '.join(args.domains)}"
                )
        # an overflow surfaces as one numerical-failure line, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (InputError, ser.FormatError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IncompatibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (IntegrationInstabilityError, GeodesicDegeneracyError, EmbeddingError,
            FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
