"""End-to-end CLI behaviour: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hodge import serialization as ser
from conformal_hodge import cli, disk, dynamics, forms, selftest, series
from conformal_hodge.cli import InputError, build_parser, main, parse_series_spec
from conformal_hodge.dynamics import GeodesicState, geodesic_energy
from conformal_hodge.mapping import ConformalMap, GramConditionWarning
from conformal_hodge.series import BivariateField, HolomorphicSeries, TruncationWarning, monomial


SRC = Path(__file__).resolve().parents[1] / "src"


def write_field(path, field):
    ser.write_json(path, ser.field_to_json(field))
    return str(path)


class TestSeriesSpecParser:
    def test_plain_monomial(self):
        assert parse_series_spec("z") == HolomorphicSeries([0, 1.0])

    def test_scalar(self):
        assert parse_series_spec("0.5") == HolomorphicSeries([0.5])
        assert parse_series_spec("0.1+0.2j") == HolomorphicSeries([0.1 + 0.2j])

    def test_terms(self):
        got = parse_series_spec("1 + 0.5*z^2")
        assert got == HolomorphicSeries([1.0, 0, 0.5])
        got2 = parse_series_spec("(0.3+0.1j)*z")
        assert got2 == HolomorphicSeries([0, 0.3 + 0.1j])

    @pytest.mark.parametrize("spec, coeffs", [
        ("1 - z", [1, -1]),
        ("z - z^2", [0, 1, -1]),
        ("0.1-z", [0.1, -1]),
        ("-z", [0, -1]),
        ("-z^2 + 1e-3*z - 2", [-2, 1e-3, -1]),
        ("1e-3*z", [0, 1e-3]),
        ("2E+1*z", [0, 20]),
        ("(0.1-0.2j)*z", [0, 0.1 - 0.2j]),
        ("z - (0.1-0.2j)*z", [0, 0.9 + 0.2j]),
        ("1-2j", [1 - 2j]),
        ("-0.5", [-0.5]),
        ("-1*z", [0, -1]),
    ])
    def test_signed_terms(self, spec, coeffs):
        assert parse_series_spec(spec) == HolomorphicSeries(coeffs)

    @pytest.mark.parametrize("spec", ["1 - - z", "z -", "1 + -", "z--z"])
    def test_dangling_sign_rejected(self, spec):
        with pytest.raises(InputError, match="empty term"):
            parse_series_spec(spec)

    def test_leading_minus_through_the_cli(self, capsys):
        assert main(["stationary", "--c", "-2", "--init=-z"]) == 0
        xi = json.loads(capsys.readouterr().out)["xi"]
        assert xi["terms"] == [{"m": 1, "n": 0, "re": -1.0, "im": 0.0}]

    def test_json_path(self, tmp_path):
        p = tmp_path / "xi.json"
        ser.write_json(p, ser.series_to_json(HolomorphicSeries([1, 2j])))
        assert parse_series_spec(str(p)) == HolomorphicSeries([1, 2j])

    def test_json_path_without_suffix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ser.write_json(tmp_path / "xi", ser.series_to_json(HolomorphicSeries([1, 2j])))
        assert parse_series_spec("xi") == HolomorphicSeries([1, 2j])

    def test_file_named_like_an_expression_does_not_shadow_it(self, tmp_path, monkeypatch,
                                                              capsys):
        # a spec that parses as an expression is one, whatever files sit beside it
        monkeypatch.chdir(tmp_path)
        argv = ["wave", "--xi0", "z", "--dt", "1e-2", "--steps", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        ser.write_json(tmp_path / "z", ser.series_to_json(HolomorphicSeries([0, 2.0])))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


def runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestProject:
    def test_disk_monomial_rule(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(1, 1))
        out = tmp_path / "o.json"
        assert main(["project", "--domain", "disk", "--in", fin, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["terms"] == [{"m": 0, "n": 0, "re": 0.5, "im": 0.0}]

    def test_deterministic_output(self, tmp_path):
        fin = write_field(tmp_path / "f.json", BivariateField({(2, 1): 1 + 2j, (0, 1): -1j}))
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["project", "--in", fin, "--out", str(o1)])
        main(["project", "--in", fin, "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_roundtrip_reparses_equal(self, tmp_path):
        fin = write_field(tmp_path / "f.json", BivariateField({(3, 1): 0.25j}))
        out = tmp_path / "o.json"
        main(["project", "--in", fin, "--out", str(out)])
        field = ser.field_from_json(json.loads(out.read_text()))
        again = tmp_path / "o2.json"
        main(["project", "--in", str(out), "--out", str(again)])
        assert ser.field_from_json(json.loads(again.read_text())) == field

    def test_mapped_projection(self, tmp_path):
        mp = tmp_path / "map.json"
        from conformal_hodge.mapping import ConformalMap

        ser.write_json(mp, ser.map_to_json(ConformalMap(HolomorphicSeries([0, 2.0]))))
        fin = write_field(tmp_path / "f.json", monomial(1, 1, 4.0))
        out = tmp_path / "o.json"
        code = main(["project", "--domain", f"map:{mp}", "--in", fin,
                     "--out", str(out), "--degree", "3"])
        assert code == 0
        got = ser.series_from_json(json.loads(out.read_text()))
        assert abs(got.coefficient(0) - 2.0) < 1e-10

    def test_annulus_incompatible(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(1, 0))
        assert main(["project", "--domain", "annulus:0.5", "--in", fin]) == 4

    def test_torus_projection(self, tmp_path, capsys):
        from conformal_hodge.torus import TorusField

        f = TorusField.from_terms(
            {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5}, {(0, 0): -1.0}, band_limit=1
        )
        p = tmp_path / "t.json"
        ser.write_json(p, ser.torus_to_json(f))
        assert main(["project", "--domain", "torus", "--in", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["c_theta"] == 2.0 and data["c_phi"] == -1.0
        residual = ser.torus_from_json(data["residual"])
        assert residual.mean() == (0.0, 0.0)


class TestCatalogAndClassify:
    def test_catalog_torus(self, capsys):
        assert main(["catalog", "--domain", "torus"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"]["A3"] == "finite(2)"

    def test_catalog_unknown(self):
        assert main(["catalog", "--domain", "klein"]) == 4

    def test_classify_disk(self, tmp_path, capsys):
        fin = write_field(tmp_path / "f.json", monomial(1, 0))
        assert main(["classify", "--domain", "disk", "--in", fin]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["labels"] == ["A6"]

    def test_classify_annulus_pole(self, tmp_path, capsys):
        blob = {
            "band_limit": 1,
            "r_in": 0.5,
            "terms": [{"m": -1, "n": 0, "re": 1.0, "im": 0.0}],
        }
        p = tmp_path / "f.json"
        ser.write_json(p, blob)
        assert main(["classify", "--domain", "annulus:0.5", "--in", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["a5_coeff"] == 1.0 and data["a4_coeff"] == 0.0
        assert data["labels"] == ["A4"]  # flat image spans the d ln(x^2+y^2) line


class TestDecomposeAdjoint:
    def test_decompose_json_contract(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(0, 1))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--in", fin, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"kind", "conformal", "F", "G", "residual_norm", "orthogonality"}
        F = ser.field_from_json(data["F"])
        assert F == BivariateField({(1, 1): 0.5, (0, 0): -0.5})
        assert len(data["orthogonality"]) == 3

    def test_decompose_helmholtz_kind(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(1, 0, 1j))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--in", fin, "--kind", "helmholtz",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "helmholtz"
        assert ser.field_from_json(data["conformal"]) == monomial(1, 0, 1j)

    def test_adjoint_disk(self, tmp_path, capsys):
        fin = write_field(tmp_path / "one.json", monomial(0, 0))
        assert main(["adjoint", "--in", fin]) == 0
        got = ser.series_from_json(json.loads(capsys.readouterr().out))
        assert got == HolomorphicSeries([0, 2.0])

    def test_adjoint_mapped(self, tmp_path, capsys):
        from conformal_hodge.mapping import ConformalMap

        mp = tmp_path / "map.json"
        ser.write_json(mp, ser.map_to_json(ConformalMap(HolomorphicSeries([0, 2.0]))))
        fin = write_field(tmp_path / "one.json", monomial(0, 0))
        assert main(["adjoint", "--map", str(mp), "--in", fin, "--degree", "3"]) == 0
        got = ser.series_from_json(json.loads(capsys.readouterr().out))
        assert abs(got.coefficient(1) - 0.5) < 1e-12


class TestDynamicsCommands:
    def test_wave_csv_and_summary(self, tmp_path):
        out = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        code = main([
            "wave", "--c", "0", "--xi0", "z", "--dt", "1e-3", "--steps", "10000",
            "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t" and "xi1_re" in header and "I_1" in header
        col = header.index("xi1_re")
        for row in lines[1:]:
            vals = [float(v) for v in row.split(",")]
            assert abs(vals[col] - math.cos(math.sqrt(2.0) * vals[0])) < 1e-4
        sdata = json.loads(summary.read_text())
        assert sdata["first_integral_max_rel_drift"] <= 1e-6

    def test_wave_halve_dt_reports_order(self, tmp_path):
        summary = tmp_path / "s.json"
        out = tmp_path / "t.csv"
        code = main([
            "wave", "--c", "1", "--xi0", "z", "--xidot0", "0.3", "--dt", "2e-3",
            "--steps", "500", "--halve-dt", "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        order = json.loads(summary.read_text())["order"]
        assert 1.8 <= order <= 2.2

    def test_wave_requires_disk(self, tmp_path):
        assert main(["wave", "--domain", "torus", "--xi0", "z",
                     "--dt", "1e-3", "--steps", "10"]) == 4

    def test_wave_rejects_bad_dt(self):
        assert main(["wave", "--xi0", "z", "--dt", "-1", "--steps", "10"]) == 2
        # non-finite flags used to exit 0 with an all-NaN trajectory
        assert main(["wave", "--xi0", "z", "--dt", "nan", "--steps", "5"]) == 2
        assert main(["wave", "--xi0", "z", "--dt", "inf", "--steps", "5"]) == 2
        assert main(["wave", "--c", "nan", "--xi0", "z", "--dt", "0.01", "--steps", "5"]) == 2

    def test_stationary(self, tmp_path):
        out = tmp_path / "st.json"
        code = main(["stationary", "--c", "-2", "--init", "0.9*z",
                     "--degree", "4", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert data["residual_norm"] <= 1e-10

    def test_stationary_summary_keys(self, tmp_path):
        # no multipliers on either domain: the disk residual is holomorphic
        mp, out = tmp_path / "map.json", tmp_path / "st.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]]})
        for argv in (["--c", "-2", "--init", "0.9*z"],
                     ["--map", str(mp), "--c", "0", "--init", "1.5+0.3*z"]):
            assert main(["stationary", *argv, "--out", str(out)]) == 0
            data = json.loads(out.read_text())
            assert set(data) == {"converged", "iterations", "residual_norm", "xi"}, argv

    def test_stationary_nonconvergence_exit(self, tmp_path):
        code = main(["stationary", "--c", "3", "--init", "z", "--max-iter", "0"])
        assert code == 3

    def test_geodesic(self, tmp_path):
        out = tmp_path / "g.csv"
        summary = tmp_path / "g.json"
        code = main([
            "geodesic", "--xi0", "0.1", "--dt", "1e-2", "--steps", "50",
            "--degree", "8", "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        sdata = json.loads(summary.read_text())
        assert sdata["energy_rel_drift"] <= 1e-6
        header = out.read_text().splitlines()[0].split(",")
        assert "energy" in header and "min_deriv" in header

    def test_stationary_on_map_keeps_constant(self, tmp_path):
        mp, out = tmp_path / "map.json", tmp_path / "st.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]]})
        assert main(["stationary", "--map", str(mp), "--c", "0", "--init", "1.5+0.3*z",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["converged"] is True
        xi = ser.series_from_json(data["xi"])
        assert abs(xi.coefficient(0) - 1.5) <= 1e-12
        assert max((abs(c) for c in xi.coeffs[1:]), default=0.0) <= 1e-12

    def test_geodesic_rejects_self_intersecting_map(self, tmp_path):
        # exp(4z) - 1 at degree 24 has min |phi'| = 0.073 but a crossing boundary
        mp = tmp_path / "map.json"
        coeffs = [0.0] + [4.0**k / math.factorial(k) for k in range(1, 25)]
        ser.write_json(mp, {"coeffs": [[c, 0.0] for c in coeffs]})
        assert main(["geodesic", "--map", str(mp), "--xi0", "0.01", "--dt", "1e-3",
                     "--steps", "2", "--degree", "24"]) == 3

    @pytest.mark.parametrize("command", [
        "project --map map.json --in f.json --degree 3",
        "geodesic --map map.json --xi0 0.01 --dt 1e-3 --steps 1",
    ], ids=["project", "geodesic"])
    def test_critical_point_between_samples_exits_3(self, tmp_path, monkeypatch, capsys,
                                                    command):
        # phi = -z0 z + z^2/2: phi' vanishes at z0, 1e-4 inside the circle and half a
        # spacing from the nearest of the 128 samples; both commands exited 0
        monkeypatch.chdir(tmp_path)
        z0 = 0.9999 * complex(math.cos(math.pi / 128), math.sin(math.pi / 128))
        ser.write_json("map.json", {"coeffs": [[0.0, 0.0], [-z0.real, -z0.imag], [0.5, 0.0]]})
        write_field(tmp_path / "f.json", monomial(1, 1))
        assert main(command.split()) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: phi' has 1 zero"), err
        assert captured.out == ""

    def test_geodesic_gram_overflow_exits_3(self, capsys):
        # the stage map stays finite, but its Gram matrix overflows; this
        # ended in LinAlgError from eigh with exit 1, the "failed check" code
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["geodesic", "--xi0", "5*z", "--dt", "1", "--steps", "20",
                         "--degree", "8"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "step 2" in err
        # the failure is the one-line message; numpy's overflow warnings are muted
        assert not runtime_warnings(caught)
        assert any(issubclass(w.category, GramConditionWarning) for w in caught)

    def test_wave_overflow_exits_3(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["wave", "--xi0", "z", "--dt", "1e300", "--steps", "2"]) == 3
        assert "numerical failure: coefficient norm exceeded" in capsys.readouterr().err
        assert not runtime_warnings(caught)

    def test_wave_overflow_message_is_one_short_line(self, capsys):
        # dt * omega_max = 6.48e300 was printed in full, about 300 digits
        assert main(["wave", "--xi0", "z", "--dt", "1e300", "--steps", "2"]) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert "6.48e+300" in last and len(last) < 200

    def test_wave_energy_overflow_exits_3_without_output(self, tmp_path, monkeypatch, capsys):
        # exited 0 with inf in every I_1 cell and a first-integral drift of 0.0
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["wave", "--xi0", "1e200*z", "--dt", "1e-3", "--steps", "2",
                         "--out", "t.csv", "--summary", "s.json"]) == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert list(tmp_path.iterdir()) == []

    def test_format_csv_rejects_non_finite(self):
        assert ser.format_csv(["t", "x"], [[0.0, 1.5]]) == "t,x\n0.0,1.5\n"
        with pytest.raises(FloatingPointError, match="column x is nan"):
            ser.format_csv(["t", "x"], [[0.0, 1.5], [1.0, math.nan]])

    def test_format_csv_of_an_array_names_the_first_non_finite_cell(self):
        rows = [[0.0, -0.0, 5e-324], [1e16, 1e-7, -1.7976931348623157e308]]
        text = "t,x,y\n0.0,-0.0,5e-324\n1e+16,1e-07,-1.7976931348623157e+308\n"
        assert ser.format_csv(["t", "x", "y"], rows) == text
        assert ser.format_csv(["t", "x", "y"], np.array(rows)) == text
        # the first in row order: column y of row 0, not column t of row 1
        with pytest.raises(FloatingPointError, match="column y is -inf"):
            ser.format_csv(["t", "x", "y"], np.array([[0.0, 1.5, -math.inf],
                                                      [math.nan, 1.0, 2.0]]))

    def test_stationary_init_above_degree_warns(self, tmp_path):
        out = tmp_path / "st.json"
        with pytest.warns(TruncationWarning, match="dropped coefficient mass 1.000e-01"):
            assert main(["stationary", "--c", "-6", "--init", "0.3*z^2+0.1*z^5",
                         "--degree", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert ser.series_from_json(data["xi"]) == HolomorphicSeries([0, 0, 0.3])

    def test_geodesic_map_above_degree_warns(self, tmp_path):
        # z + 0.05 z^10 at degree 4 integrates phi = z, whose min |phi'| is 1
        mp, summary = tmp_path / "map.json", tmp_path / "g.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 8
                                      + [[0.05, 0.0]]})
        with pytest.warns(TruncationWarning, match="dropped coefficient mass 5.000e-02"):
            assert main(["geodesic", "--map", str(mp), "--xi0", "0.01", "--dt", "1e-3",
                         "--steps", "1", "--degree", "4", "--out", str(tmp_path / "g.csv"),
                         "--summary", str(summary)]) == 0
        assert json.loads(summary.read_text())["min_deriv_min"] == 1.0

    def test_geodesic_halve_dt_order(self, tmp_path):
        summary = tmp_path / "g.json"
        code = main([
            "geodesic", "--xi0", "0.05+0.08*z", "--dt", "0.1", "--steps", "10",
            "--degree", "10", "--halve-dt",
            "--out", str(tmp_path / "g.csv"), "--summary", str(summary),
        ])
        assert code == 0
        order = json.loads(summary.read_text())["order"]
        assert 3.5 <= order <= 4.5

    @pytest.mark.parametrize("argv, integrator", [
        ("wave --c 1 --xi0 z --xidot0 0.3 --dt 2e-3 --steps 500", "wave_integrate"),
        ("geodesic --xi0 0.05+0.08*z --dt 0.1 --steps 10 --degree 10", "geodesic_integrate"),
    ], ids=["wave", "geodesic"])
    def test_halve_dt_reuses_the_written_run(self, tmp_path, monkeypatch, argv, integrator):
        real, runs = getattr(dynamics, integrator), []

        def counted(*args, **kw):
            runs.append((args, kw, real(*args, **kw)))
            return runs[-1][2]

        monkeypatch.setattr(dynamics, integrator, counted)
        assert main(argv.split() + ["--halve-dt", "--out", str(tmp_path / "t.csv"),
                                    "--summary", str(tmp_path / "s.json")]) == 0
        assert len(runs) == 3  # dt, dt/2 and dt/4: the written run serves dt
        # sampled at the end only, the run at dt ends bit for bit where the written one does
        args, kw, written = runs[0]
        alone = real(*args, **{**kw, "sample_stride": args[-1]})
        for name in ("phi", "xi"):
            if hasattr(written, name):
                assert np.array_equal(getattr(alone, name)[-1], getattr(written, name)[-1])

    def test_geodesic_certifies_the_initial_map_once(self, tmp_path, monkeypatch):
        # a benchmark geodesic op: phi' is evaluated once for the --map check and
        # once per step, as step 0 reads the checked map
        mp, out = tmp_path / "map.json", tmp_path / "g.csv"
        coeffs = [0j, 1 + 0j, 0.05 - 0.03j]
        ser.write_json(mp, {"coeffs": [[c.real, c.imag] for c in coeffs]})
        xi = "0.08+0.05*z-0.02j*z^2+0.01*z^3"
        grid, calls = series.evaluate_grid, []
        monkeypatch.setattr(series, "evaluate_grid",
                            lambda f, points: calls.append(f) or grid(f, points))
        assert main(["geodesic", "--map", str(mp), "--xi0", xi, "--dt", "1e-3",
                     "--steps", "10", "--degree", "16", "--out", str(out),
                     "--summary", str(tmp_path / "g.json")]) == 0
        assert len(calls) == 11
        # step 0 reads as it does off a fresh map of the same coefficients
        first = [float(v) for v in out.read_text().splitlines()[1].split(",")]
        fresh = ConformalMap(HolomorphicSeries(coeffs), validate=False)
        energy = geodesic_energy(GeodesicState(fresh, parse_series_spec(xi)))
        assert first[-2:] == [energy, fresh.min_deriv]


class TestConfigAndFlags:
    def test_config_json_supplies_numeric_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"dt": 1e-2, "steps": 20, "sample_stride": 10})
        out = tmp_path / "t.csv"
        summary = tmp_path / "s.json"
        code = main(["wave", "--xi0", "z", "--config", str(cfg),
                     "--out", str(out), "--summary", str(summary)])
        assert code == 0
        assert json.loads(summary.read_text())["steps"] == 20

    def test_explicit_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"dt": 1e-2, "steps": 20})
        summary = tmp_path / "s.json"
        out = tmp_path / "t.csv"
        main(["wave", "--xi0", "z", "--config", str(cfg), "--steps", "5",
              "--out", str(out), "--summary", str(summary)])
        assert json.loads(summary.read_text())["steps"] == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"dx": 1.0})
        assert main(["wave", "--xi0", "z", "--config", str(cfg)]) == 2

    def test_config_keys_without_option_rejected(self, tmp_path):
        # classify has --tol but no --degree or --dt; both keys were ignored (exit 0)
        fin = write_field(tmp_path / "f.json", monomial(1, 0))
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"degree": 8, "dt": 5})
        assert main(["classify", "--in", fin, "--config", str(cfg)]) == 2

    def test_missing_dt_reported(self):
        assert main(["wave", "--xi0", "z", "--steps", "5"]) == 2

    def test_map_flag_shorthand(self, tmp_path):
        from conformal_hodge.mapping import ConformalMap

        mp = tmp_path / "map.json"
        ser.write_json(mp, ser.map_to_json(ConformalMap(HolomorphicSeries([0, 2.0]))))
        fin = write_field(tmp_path / "f.json", monomial(1, 1, 4.0))
        out = tmp_path / "o.json"
        code = main(["project", "--map", str(mp), "--in", fin,
                     "--out", str(out), "--degree", "3"])
        assert code == 0
        got = ser.series_from_json(json.loads(out.read_text()))
        assert abs(got.coefficient(0) - 2.0) < 1e-10

    def test_r_in_flag_shorthand(self, tmp_path, capsys):
        blob = {"band_limit": 1, "r_in": 0.5,
                "terms": [{"m": -1, "n": 0, "re": 0.0, "im": 1.0}]}
        p = tmp_path / "f.json"
        ser.write_json(p, blob)
        assert main(["classify", "--r-in", "0.5", "--in", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["a4_coeff"] == 1.0
        assert data["labels"] == ["A5"]

    @pytest.mark.parametrize("argv", [
        "stationary --c -7.640463392677432e-05 --init 0.1",  # repr of a float in (-1e-4, 0)
        "stationary --c -1e3 --init 0.1",
        "wave --c -5E-05 --xi0 z --dt 1e-2 --steps 3",
    ])
    def test_negative_number_in_exponent_notation_is_a_value(self, argv, capsys):
        args = argv.split()
        assert build_parser().parse_args(args).c == float(args[2])
        assert main(args) == 0

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_value_still_rejected(self, value):
        assert main(["stationary", "--c", value]) == 2

    def test_wave_csv_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (o1, o2):
            main(["wave", "--xi0", "0.3*z + 0.1", "--dt", "1e-2", "--steps", "25",
                  "--out", str(out), "--summary", str(tmp_path / "s.json")])
        assert o1.read_bytes() == o2.read_bytes()


class TestProcessDeterminism:
    """Identical inputs give byte-identical outputs in fresh processes whose
    string hashes (PYTHONHASHSEED) and BLAS thread counts (OPENBLAS_NUM_THREADS)
    differ, for the geodesic flow whose stages run through BLAS matrix
    products, for the classifier on both of its domains, and for pairings
    whose contractions span many rows."""

    @staticmethod
    def _run_twice(tmp_path, argv, outputs):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        procs = []
        for seed, threads in (("0", "1"), ("1", "2")):
            cmd = [sys.executable, "-m", "conformal_hodge.cli", *argv,
                   *(arg for name, flag in outputs for arg in (flag, name.format(seed)))]
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed,
                       OPENBLAS_NUM_THREADS=threads)
            procs.append(subprocess.Popen(cmd, cwd=tmp_path, env=env, stderr=subprocess.PIPE))
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        for name, _ in outputs:
            assert (tmp_path / name.format(0)).read_bytes() == (tmp_path / name.format(1)).read_bytes()

    @pytest.mark.parametrize("argv", [
        "geodesic --xi0 0.1 --dt 1e-3 --steps 1000",  # the README example
        "geodesic --map map.json --xi0 0.05+0.1*z --dt 1e-2 --steps 50",
    ], ids=["readme", "map"])
    def test_geodesic_outputs_match_across_hash_seeds(self, tmp_path, argv):
        ser.write_json(tmp_path / "map.json", {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.05]]})
        self._run_twice(tmp_path, argv.split(),
                        [("traj{}.csv", "--out"), ("summary{}.json", "--summary")])

    @pytest.mark.parametrize("argv", [
        "classify --in field.json",
        "classify --r-in 0.5 --in laurent.json",
    ], ids=["disk", "annulus"])
    def test_classify_outputs_match_across_hash_seeds(self, tmp_path, argv):
        rng = np.random.default_rng(23)
        write_field(tmp_path / "field.json", series.random_field(rng, 12))
        band = range(-6, 7)
        terms = [{"m": m, "n": n, "re": float(re), "im": float(im)}
                 for m in band for n in band for re, im in [rng.standard_normal(2)]]
        ser.write_json(tmp_path / "laurent.json", {"r_in": 0.5, "band_limit": 6, "terms": terms})
        self._run_twice(tmp_path, argv.split(), [("out{}.json", "--out")])

    @pytest.mark.parametrize("argv", [
        "decompose --in field.json",
        "classify --r-in 0.7 --in laurent.json",
    ], ids=["degree-128", "band-20"])
    def test_wide_pairings_match_across_thread_counts(self, tmp_path, argv):
        # a plain BLAS product over all 129 rows of the degree-128 table changes
        # its last bits with the thread count
        rng = np.random.default_rng(128)
        write_field(tmp_path / "field.json", series.random_field(rng, 128))
        band = range(-20, 21)
        terms = [{"m": m, "n": n, "re": float(re), "im": float(im)}
                 for m in band for n in band for re, im in [rng.standard_normal(2)]]
        ser.write_json(tmp_path / "laurent.json", {"r_in": 0.7, "band_limit": 20, "terms": terms})
        self._run_twice(tmp_path, argv.split(), [("out{}.json", "--out")])


class TestDomainResolution:
    @pytest.mark.parametrize("argv", [
        ["decompose", "--domain", "torus", "--in", "{field}"],
        ["adjoint", "--domain", "annulus:0.5", "--in", "{field}"],
        ["classify", "--domain", "map:{map}", "--in", "{field}"],
        ["stationary", "--domain", "torus"],
        ["wave", "--domain", "map:{map}", "--xi0", "z", "--dt", "1e-3", "--steps", "10"],
        ["geodesic", "--domain", "annulus:0.5", "--xi0", "z", "--dt", "1e-3",
         "--steps", "10"],
        ["project", "--domain", "annulus:0.5", "--in", "{field}"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2].split(':')[0]}")
    def test_incompatible_domain_exits_4(self, tmp_path, capsys, argv):
        mp = tmp_path / "map.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]]})
        fin = write_field(tmp_path / "f.json", monomial(1, 0))
        argv = [a.format(map=mp, field=fin) for a in argv]
        assert main(argv) == 4
        assert f"{argv[0]} supports the domains" in capsys.readouterr().err

    def test_shared_parser_keeps_no_state(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"dt": 1e-2, "steps": 5})
        assert main(["wave", "--xi0", "z", "--config", str(cfg),
                     "--out", str(tmp_path / "w.csv"),
                     "--summary", str(tmp_path / "w.json")]) == 0
        # the config's steps must not carry over into the next call
        assert main(["wave", "--xi0", "z", "--dt", "1e-2"]) == 2
        assert build_parser() is build_parser()


class TestSelfTest:
    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "suites passed" in out and "FAIL" not in out

    def test_fault_injection_fails_adjoint_suite(self, capsys, monkeypatch):
        clean = series.pair_constants
        monkeypatch.setattr(series, "pair_constants", lambda *a, **k: clean(*a, **k) + 1e-3)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL") and "adjoint identity" in line
                   for line in out.splitlines())

    def test_wrong_helmholtz_potential_fails_the_traces_row(self, capsys, monkeypatch):
        # F + Re z has the Laplacian of F, so the divergence of f - grad(F + Re z) and
        # residual_norm stay; only the boundary trace, cos(theta), shows the error
        real = selftest.helmholtz_decompose
        re_z = BivariateField({(1, 0): 0.5, (0, 1): 0.5})

        def shifted(f):
            dec = real(f)
            F = series.add(dec.multipliers.F, re_z)
            gradient = series.scale(series.wirtinger(F, "d_zbar"), 2)
            vol = series.subtract(dec.parts[0][1], BivariateField({(0, 0): 1.0}))
            parts = (("divergence_free", vol), ("gradient", gradient))
            return replace(dec, parts=parts, multipliers=disk.MultiplierPair(F, dec.multipliers.G),
                           orthogonality=disk._orthogonality_matrix(parts))

        monkeypatch.setattr(selftest, "helmholtz_decompose", shifted)
        assert main(["check"]) == 1
        rows = {line.split("metric=")[0][6:].strip(): line[:4]
                for line in capsys.readouterr().out.splitlines() if "metric=" in line}
        assert rows["multiplier boundary traces"] == "FAIL"
        assert rows["decomposition reconstruction"] == "PASS"

    def test_degraded_quadrature_relaxed_threshold(self, capsys):
        assert main(["check", "--quadrature", "8x16"]) == 0
        out = capsys.readouterr().out
        assert "degraded quadrature" in out


class TestErrorPaths:
    def test_missing_input_file(self):
        assert main(["project", "--in", "/nonexistent/f.json"]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["project", "--in", str(p)]) == 2
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2, 3]")
        assert main(["classify", "--r-in", "0.5", "--in", str(listing)]) == 2

    def test_non_finite_coefficients_rejected(self, tmp_path):
        # each of these used to exit 0 with a meaningless result or 1 with a traceback
        assert main(["wave", "--xi0", "nan*z", "--dt", "0.01", "--steps", "5",
                     "--out", str(tmp_path / "w.csv"),
                     "--summary", str(tmp_path / "w.json")]) == 2
        fin = tmp_path / "f.json"
        ser.write_json(fin, {"max_degree": 2,
                             "terms": [{"m": 1, "n": 1, "re": "nan", "im": 0}]})
        assert main(["decompose", "--in", str(fin), "--out", str(tmp_path / "d.json")]) == 2
        mp = tmp_path / "map.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0]]})
        assert main(["geodesic", "--map", str(mp), "--xi0", "nan", "--dt", "0.01",
                     "--steps", "2", "--out", str(tmp_path / "g.csv"),
                     "--summary", str(tmp_path / "g.json")]) == 2
        mp.write_text(json.dumps({"coeffs": [[0.0, 0.0], [1.0, math.inf]]}))  # writes Infinity
        one = write_field(tmp_path / "one.json", monomial(0, 0))
        assert main(["adjoint", "--map", str(mp), "--in", one, "--degree", "3"]) == 2
        # non-finite numeric flags: exit 3 with a NaN in the JSON, or a traceback
        assert main(["stationary", "--c", "nan", "--init", "0.5*z"]) == 2
        assert main(["stationary", "--c", "1", "--init", "0.5*z", "--tol", "nan"]) == 2
        assert main(["geodesic", "--xi0", "0.1", "--dt", "nan", "--steps", "3",
                     "--degree", "4"]) == 2

    def test_config_values_type_checked(self, tmp_path):
        # the first two ended in a traceback with exit 1, the next two ran
        # silently with 2 steps and with dt = 1, and the last overflowed
        fin = write_field(tmp_path / "f.json", monomial(1, 1))
        cfg = tmp_path / "cfg.json"
        ser.write_json(cfg, {"tol": "abc"})
        assert main(["classify", "--in", fin, "--config", str(cfg)]) == 2
        for bad in ({"dt": "x", "steps": 2}, {"steps": 2.7, "dt": 0.01},
                    {"dt": True, "steps": 2}, {"dt": 10**400, "steps": 2}):
            ser.write_json(cfg, bad)
            assert main(["wave", "--xi0", "z", "--config", str(cfg),
                         "--out", str(tmp_path / "w.csv"),
                         "--summary", str(tmp_path / "w.json")]) == 2, bad

    def test_count_flags_range_checked(self):
        # these exited 1 with a traceback (the "failed check" code) or 3
        assert main(["wave", "--xi0", "z", "--dt", "1e-3", "--steps", "2", "--max-m", "-5"]) == 2
        assert main(["check", "--quadrature", "0x0"]) == 2
        assert main(["stationary", "--c", "3", "--init", "z", "--max-iter", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        # these printed a numpy _ArrayMemoryError traceback and exited 1
        "wave --xi0 z --dt 1e-3 --steps 1 --max-m 1000000000000",
        "check --quadrature 10000000x10000000",
        # the first value past each bound
        f"wave --xi0 z --dt 1e-3 --steps 1 --max-m {ser.SIZE_LIMIT + 1}",
        f"check --quadrature {cli.QUADRATURE_LIMIT + 1}x16",
        f"check --quadrature 8x{cli.QUADRATURE_LIMIT + 1}",
    ])
    def test_count_flags_bounded_above(self, argv, capsys):
        tracemalloc.start()
        try:
            assert main(argv.split()) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # rejected before any array of that size is built
        assert "must" in capsys.readouterr().err

    def test_bad_domain_string(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(0, 0))
        assert main(["project", "--domain", "sphere:1", "--in", fin]) == 2

    def test_bad_degree_range(self, tmp_path):
        fin = write_field(tmp_path / "f.json", monomial(0, 0))
        assert main(["project", "--in", fin, "--degree", "65"]) == 2

    @pytest.mark.parametrize("degree, zeros, code", [(64, 0, 0), (64, 40, 0), (65, 0, 2)])
    def test_map_degree_cap(self, tmp_path, degree, zeros, code):
        # the cap on the trimmed degree is the --degree cap, checked before any samples
        mp = tmp_path / "map.json"
        ser.write_json(mp, {"coeffs": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * (degree - 2)
                            + [[1e-3, 0.0]] + [[0.0, 0.0]] * zeros})
        fin = write_field(tmp_path / "f.json", monomial(1, 1))
        argv = ["project", "--map", str(mp), "--in", fin, "--out", str(tmp_path / "o.json")]
        assert main(argv) == code

    def test_argparse_error_code(self):
        assert main(["definitely-not-a-command"]) == 2


BIG = 1e308
OVERFLOW_INPUTS = {
    # 2 d_zbar f and its Poisson potentials overflow to inf and NaN
    "field.json": {"max_degree": 3, "terms": [{"m": 1, "n": 0, "re": -BIG, "im": 0.0},
                                              {"m": 2, "n": 1, "re": BIG, "im": BIG}]},
    # the adjoint multiplies the coefficients by k + 2
    "series.json": {"max_degree": 4, "terms": [{"m": 2, "n": 0, "re": BIG, "im": BIG},
                                               {"m": 4, "n": 0, "re": -BIG, "im": 0.0}]},
    "laurent.json": {"r_in": 0.5, "band_limit": 2,
                     "terms": [{"m": -2, "n": 1, "re": BIG, "im": BIG}]},
    "map.json": {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.05]]},
}


@pytest.mark.parametrize("argv", [
    "decompose --in field.json --kind conformal",
    "decompose --in field.json --kind helmholtz",
    "decompose --in field.json --kind symplectic",
    "classify --in field.json",
    "adjoint --in series.json",
    "adjoint --in series.json --map map.json",
    "classify --r-in 0.5 --in laurent.json",
])
def test_non_finite_result_exits_3_without_output(tmp_path, monkeypatch, capsys, argv):
    # each of these exited 0 with NaN or Infinity in its JSON
    monkeypatch.chdir(tmp_path)
    for name, obj in OVERFLOW_INPUTS.items():
        ser.write_json(name, obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv.split() + ["--out", "out.json"]) == 3
    # the failure is one stderr line: numpy's overflow warnings are muted
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure"), err
    assert not (tmp_path / "out.json").exists()


# (r_in, Laurent field): r_in ** -k in the Poisson solve, and r ** (p + 1) in
# the radial antiderivative, overflow Python floats; both ended in a traceback
ANNULUS_OVERFLOW = [
    (1e-200, {"r_in": 1e-200, "band_limit": 2,
              "terms": [{"m": 0, "n": 1, "re": 1.0, "im": 0.0}]}),
    (0.01, {"r_in": 0.01, "band_limit": 60,
            "terms": [{"m": -60, "n": 3, "re": 1.0, "im": 0.0}]}),
    # few terms on a wide declared band: the pairing moments of that band overflow
    (0.01, {"r_in": 0.01, "band_limit": 80,
            "terms": [{"m": -80, "n": 0, "re": 1.0, "im": 0.0},
                      {"m": 1, "n": 2, "re": 1.0, "im": 0.0}]}),
]


@given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False,
                                          allow_infinity=False), min_size=1, max_size=3),
       st.sampled_from([0.01, 0.1, 0.5, 0.9]), st.integers(0, 512))
@example({(1, 2): 1.0}, 0.01, 80)
@settings(max_examples=25, deadline=None)
def test_classify_report_does_not_depend_on_the_declared_band(tmp_path_factory, terms, r_in,
                                                              declared):
    # the declared band only bounds the indices: the field lives on its own band
    work = tmp_path_factory.mktemp("band")
    own = max(abs(k) for mn in terms for k in mn)
    reports = []
    for band in (own, max(own, declared)):
        ser.write_json(work / "f.json", {"r_in": r_in, "band_limit": band, "terms": [
            {"m": m, "n": n, "re": c.real, "im": c.imag} for (m, n), c in terms.items()]})
        out = work / f"{band}.json"
        argv = ["classify", "--r-in", repr(r_in), "--in", str(work / "f.json"), "--out", str(out)]
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_nan_inner_circle_trace_exits_3_without_output(tmp_path, monkeypatch, capsys):
    # the outer circle's trace was reported over the inner circle's NaN, with exit 0
    clean = forms.boundary_traces
    monkeypatch.setattr(forms, "boundary_traces", lambda f, radius: (
        clean(f, radius) if radius == 1.0 else (math.nan, math.nan)))
    monkeypatch.chdir(tmp_path)
    ser.write_json("laurent.json", {"band_limit": 1, "r_in": 0.5,
                                    "terms": [{"m": -1, "n": 0, "re": 1.0, "im": 0.0}]})
    assert main(["classify", "--r-in", "0.5", "--in", "laurent.json", "--out", "out.json"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure"), err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("r_in, field", ANNULUS_OVERFLOW, ids=["poisson", "moment", "declared"])
def test_annulus_overflow_exits_3_without_output(tmp_path, monkeypatch, capsys, r_in, field):
    monkeypatch.chdir(tmp_path)
    ser.write_json("laurent.json", field)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["classify", "--r-in", repr(r_in), "--in", "laurent.json", "--out", "out.json"]
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure"), err
    assert not (tmp_path / "out.json").exists()
