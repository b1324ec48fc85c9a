"""The benchmark's own output checks on more ops than its smoke run covers.

Runs 4 ops from each of 2 seeds per workload (the smoke run uses seed 1 and
one op) through ``cli.main`` in-process and asserts that every call exits 0
and that the op's check reports no problem.  A second test drives the
worker's own loop: every op of one process in one work directory, the last
ones under the span tracer, as a traced benchmark run does.  The stationary
tests that follow reach ops far into a run: an op whose potential constant
is written in exponent notation, 300 consecutive ops of one worker, and
ops on recurring maps, whose outputs must not depend on the ops before them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conformal_hodge import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_ops_pass_their_checks(workload, seed, tmp_path):
    for index in range(4):
        work = tmp_path / str(index)
        work.mkdir()
        op = workloads.make_op(workload, seed, index, work)
        for argv in op.argvs:
            assert cli.main(argv) == 0, (index, argv)
        assert op.check() == [], index


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_worker_loop_passes_untraced_and_traced(workload, tmp_path):
    runner = worker.Runner(workload, 29, tmp_path)
    runner.cli = cli
    for index in ["cold", "warmup0", "warmup1", *range(10)]:
        runner.run(index)
    spans = tracer.Tracer()
    with spans.installed():
        for i in range(3):
            runner.run(f"trace{i}", wrap=spans.op)
    assert runner.attempted == 16
    assert runner.failed == 0, runner.failures


def test_stationary_op_with_exponent_notation_constant(tmp_path):
    op = workloads.make_op("stationary", 11, 6505, tmp_path)
    assert "e-05" in op.argvs[0][op.argvs[0].index("--c") + 1]
    assert cli.main(op.argvs[0]) == 0
    assert op.check() == []


def test_stationary_worker_runs_300_consecutive_ops(tmp_path):
    runner = worker.Runner("stationary", 11, tmp_path)
    runner.cli = cli
    for index in range(6400, 6700):
        runner.run(index)
    assert runner.attempted == 300
    assert runner.failed == 0, runner.failures


def test_stationary_outputs_carry_no_state_between_ops(tmp_path):
    # ops on pool maps A, B, A run in one process write the bytes that each
    # op writes alone in a fresh process
    ops = []
    for index in range(100):
        work = tmp_path / str(index)
        work.mkdir()
        op = workloads.make_op("stationary", 11, index, work)
        # the first op is on A; take the first later op on another map, then one on A
        if not ops or (op.map_key != ops[0].map_key) == (len(ops) == 1):
            ops.append(op)
        if len(ops) == 3:
            break
    assert ops[0].map_key == ops[2].map_key != ops[1].map_key
    for op in ops:
        assert cli.main(op.argvs[0]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for op in ops:
        out = str(op.outputs[0])
        fresh = op.outputs[0].with_name("fresh.json")
        argv = [str(fresh) if arg == out else arg for arg in op.argvs[0]]
        subprocess.run([sys.executable, "-m", "conformal_hodge.cli", *argv],
                       env=env, check=True, timeout=300)
        assert op.outputs[0].read_bytes() == fresh.read_bytes()
