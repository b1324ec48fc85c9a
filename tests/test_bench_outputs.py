"""The benchmark's own output checks on more ops than its smoke run covers.

Runs 4 ops from each of 2 seeds per workload (the smoke run uses seed 1 and
one op) through ``cli.main`` in-process and asserts that every call exits 0
and that the op's check reports no problem.  A second test drives the
worker's own loop: every op of one process in one work directory, the last
ones under the span tracer, as a traced benchmark run does.
"""

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
