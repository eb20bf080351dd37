"""The benchmark under `perfbench/` drives the package from outside: it calls
`cli.main`, the oracle's brute-force functions and `Graph`, and its tracer
wraps module functions by name and reads `graphs.adjacency_masks.cache_info()`.
These tests run the benchmark's own code, unedited, on the first operations
of each workload, so a change that breaks that contract fails here and not
only in a benchmark run."""
import importlib
import os
import sys

import pytest

import threshknap
import threshknap.cli
import threshknap.oracle

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
BENCH_MODULES = ("run", "spans", "workloads", "check", "gen")


@pytest.fixture(scope="module")
def bench():
    """perfbench's `run`, `spans` and `workloads`, which import their
    siblings as top-level modules; those names are dropped afterwards."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield tuple(importlib.import_module(name) for name in BENCH_MODULES[:3])
    finally:
        sys.path.remove(PERFBENCH)
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["kp1d", "graphs", "multi"])
def test_benchmark_operations_pass_plain_and_traced(bench, workload, tmp_path):
    run, spans, workloads = bench
    kinds = workloads.WORKLOADS[workload]
    runner = run.Runner(threshknap, workload, 1, str(tmp_path))
    slots = workloads.stream(kinds, 1)
    for index in range(40):
        runner.run(workloads.build(next(slots)), index)
    runner.oracle_sample(threshknap, kinds)
    main = threshknap.cli.main
    tracer = spans.Tracer(threshknap)
    tracer.install()
    try:
        for index in range(40, 45):
            runner.run(workloads.build(next(slots)), index)
        tracer.take()
        assert tracer.cache.cache_info() is not None
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert threshknap.cli.main is main
