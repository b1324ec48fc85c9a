"""Accepted CLI invocations must keep exiting 0; malformed input files exit 2.

A change that turns one of the accepted inputs into an error fails here.
The list holds the README examples verbatim, series JSON paths without a
suffix, initial data above the requested degree (cut with a warning, not
rejected), high modes, a fine mapped projection, and an expression that
shares its name with a file in the working directory.  None of them may
write a NaN or infinity token to stdout or to an output file, and each
JSON document they write is laid out exactly as
``json.dumps(..., sort_keys=True, indent=2)`` writes it.

Each REJECTED invocation reads a malformed interchange file ``bad.json``,
or passes a series expression with a power above ``SIZE_LIMIT``, and must
exit 2 with a single ``error:`` line, writing nothing.
"""

import json
import re
import warnings

import pytest

from conformal_hodge import serialization as ser
from conformal_hodge.cli import main
from conformal_hodge.series import BivariateField, HolomorphicSeries, TruncationWarning

README = [
    "project   --domain disk --in field.json --out proj.json",
    "decompose --in field.json --kind conformal --out dec.json",
    "adjoint   --in series.json --map map.json",
    "classify  --r-in 0.5 --in laurent.json",
    "catalog   --domain torus",
    "stationary --c -2 --init 0.9*z --out result.json",
    "wave      --c 0 --xi0 z --dt 1e-3 --steps 10000 --out traj.csv",
    "geodesic  --xi0 0.1 --dt 1e-3 --steps 1000 --out traj.csv",
    "check",
]

ACCEPTED = [
    "stationary --init xi_series --out result.json",
    "wave --xi0 xi_series --dt 1e-2 --steps 3",
    "stationary --c -6 --init 0.3*z^2+0.1*z^5 --degree 3",
    "geodesic --map wiggly_map --xi0 0.01 --dt 1e-3 --steps 1 --degree 4",
    "wave --xi0 z^70 --max-m 70 --dt 1e-6 --steps 3",
    "wave --xi0 z^512 --dt 1e-6 --steps 3",  # the power at serialization.SIZE_LIMIT
    "project --map map.json --in field.json --degree 30",
    "wave --xi0 z --dt 1e-2 --steps 3",  # beside an empty file named z
]

BIG_INT = "1" + "0" * 400  # a JSON integer past the float range
TORUS = '"theta_terms": [], "phi_terms": []'

# (invocation, content of bad.json); each of these ended in a traceback
# with exit 1, or was silently misread, before the reader rule
REJECTED = [
    ("project --in bad.json", '{"max_degree": "x", "terms": []}'),
    ("project --in bad.json", '{"max_degree": true, "terms": []}'),
    ("project --in bad.json", '{"max_degree": 2, "terms": 5}'),
    ("project --in bad.json", '{"max_degree": 1%s, "terms": []}' % ("0" * 5000)),
    ("project --in bad.json", "[" * 100_000),
    ("project --domain torus --in bad.json", '{"band_limit": "x", %s}' % TORUS),
    ("project --domain torus --in bad.json", '{"band_limit": -1, %s}' % TORUS),
    ("project --domain torus --in bad.json", '{"band_limit": 1.5, %s}' % TORUS),
    ("decompose --in bad.json",
     '{"max_degree": 2, "terms": [{"m": 1, "n": 0, "re": %s, "im": 0}]}' % BIG_INT),
    ("decompose --in bad.json",
     '{"max_degree": 2, "terms": [{"m": 1.5, "n": 0, "re": 1.0, "im": 0}]}'),
    ("decompose --in bad.json",
     '{"max_degree": 2, "terms": [{"m": 1, "n": 0, "re": true, "im": 0}]}'),
    ("adjoint --in series.json --map bad.json", '{"coeffs": [[0, 0], [%s, 0]]}' % BIG_INT),
    ("adjoint --in series.json --map bad.json", '{"coeffs": [[0, 0], [1, 0], [0, false]]}'),
    ("classify --in bad.json", b'{"max_degree": 0, "terms": [], "note": "\xe9"}'),
    ("classify --r-in 0.5 --in bad.json", '{"band_limit": 1.5, "terms": []}'),
    ("classify --r-in 0.5 --in bad.json", '{"r_in": "0.5", "band_limit": 1, "terms": []}'),
    # an index far outside the declared bound, refused before any table is allocated
    ("decompose --in bad.json",
     '{"max_degree": 32, "terms": [{"m": %d, "n": 0, "re": 1.0, "im": 0.0}]}' % 10**15),
    ("classify --r-in 0.5 --in bad.json",
     '{"r_in": 0.5, "band_limit": 6, "terms": [{"m": %d, "n": 0, "re": 1.0, "im": 0.0}]}'
     % 10**15),
    # a declared bound past serialization.SIZE_LIMIT, refused before its table is allocated
    ("project --domain torus --in bad.json", '{"band_limit": 100000000, %s}' % TORUS),
    ("decompose --in bad.json",
     '{"max_degree": %d, "terms": [{"m": %d, "n": 0, "re": 1.0, "im": 0.0}]}' % (10**15, 10**15)),
    ("classify --r-in 0.5 --in bad.json", '{"r_in": 0.5, "band_limit": 513, "terms": []}'),
    # a negative declared bound, which was read as 0
    ("project --in bad.json", '{"max_degree": -1, "terms": []}'),
    ("decompose --in bad.json", '{"max_degree": -1, "terms": []}'),
    ("classify --r-in 0.5 --in bad.json", '{"r_in": 0.5, "band_limit": -1, "terms": []}'),
    # an expression power past SIZE_LIMIT, refused before its coefficient list is built
    ("wave --xi0 z^513 --dt 1e-6 --steps 3", "{}"),
    ("wave --xi0 0*z^1000000000000 --dt 1e-6 --steps 3", "{}"),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ser.write_json("field.json", ser.field_to_json(
        BivariateField({(2, 1): 0.5, (1, 0): 1.0 - 0.5j, (0, 3): 0.25j})))
    ser.write_json("series.json", ser.series_to_json(HolomorphicSeries([0.1, 0.3, -0.2j])))
    ser.write_json("map.json", {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.1, 0.05]]})
    ser.write_json("laurent.json", {"r_in": 0.5, "band_limit": 2, "terms": [
        {"m": -1, "n": 0, "re": 1.0, "im": 0.0}, {"m": 2, "n": 0, "re": 0.0, "im": 0.5}]})
    ser.write_json("xi_series", ser.series_to_json(HolomorphicSeries([0.2, 0.05j])))
    ser.write_json("wiggly_map", {"coeffs": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 8
                                  + [[0.05, 0.0]]})
    (tmp_path / "z").touch()
    return tmp_path


NON_FINITE = re.compile(r"\b(NaN|-?Infinity|nan|-?inf)\b")
JSON_START = re.compile(r"^\{$", re.MULTILINE)  # a document, alone or after a CSV table


@pytest.mark.parametrize("command", README + ACCEPTED, ids=lambda c: " ".join(c.split()))
def test_accepted_invocation_exits_0(workdir, command, capsys):
    inputs = set(workdir.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert main(command.split()) == 0, capsys.readouterr().err
    # strict output: no NaN or infinity token on stdout or in any file written
    outputs = {p.name: p.read_text() for p in set(workdir.iterdir()) - inputs}
    for where, text in {"stdout": capsys.readouterr().out, **outputs}.items():
        assert not NON_FINITE.search(text), where
        start = JSON_START.search(text)
        if start:
            doc = text[start.start():]
            assert doc == json.dumps(json.loads(doc), sort_keys=True, indent=2) + "\n", where


@pytest.mark.parametrize("command, content", REJECTED,
                         ids=[f"{c.split()[0]}-{i}" for i, (c, _) in enumerate(REJECTED)])
def test_rejected_input_exits_2(workdir, command, content, capsys):
    bad = workdir / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    inputs = set(workdir.iterdir())
    assert main(command.split() + ["--out", "out.txt"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert captured.out == ""
    assert set(workdir.iterdir()) == inputs
