"""Benchmark of the threshknap command line: one workload per process.

    python3 perfbench/run.py --workload kp1d --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/` there
and nowhere else.  One client runs a closed loop in this process: each
operation is one `threshknap.cli.main([...])` call on an input file written
just before it, with stdout captured in memory.  Generating inputs and
certifying outputs are never timed, and every output is certified.

`--trace 0` runs fresh operations until they have spent `--seconds` inside
`cli.main`.  Input caches are never cleared, so memory the program keeps
between calls shows in `peak_rss_mb`; it is read after a fixed number of
operations, because read at the end of a timed loop it would follow the
machine's speed.

Times are reported at the reference machine's speed.  The reference machine
(2 cores shared with other tenants) runs the same code up to twice as slow
for minutes at a time.  Such spells slow the spawn of a bare interpreter
about as much as they slow the operations (a pure-Python loop inside this
process tracked them less well).  So SETUP_SPAWNS times, spread evenly over
the time the operations spend, the loop spawns an interpreter that imports
the package and then a bare one (`import os`).  The run's slowness is the
median bare spawn over BARE_SPAWN_REF_S, and operation times are divided by
it; the bare spawn never touches the package, so a change to the program
cannot move it.  The seconds as measured, and the slowness, are in the
details line.  It prints the end-to-end metrics:

  setup_s      time from spawning a fresh interpreter until `threshknap.cli`
               is imported: BARE_SPAWN_REF_S times the median ratio of each
               such spawn to the bare spawn right after it
  op_p50_s     median wall time of one operation, over slowness
  op_tail_s    the 90th percentile, or the highest below it with at least
               ten operations beyond it (percentile and count are in the
               details line), over slowness
  ops_per_s    operations per second of wall time spent inside `cli.main`,
               times slowness
  peak_rss_mb  `ru_maxrss` of this process after the workload's first
               RSS_AFTER operations
  pass_ratio   operations that passed certification / all (1 - fail
               ratio; a failure is an exception, a wrong exit code or an
               output the checker rejects)

`--trace 1` runs half the time untraced and half traced (see spans.py), and
prints per-layer metrics: self seconds and counts per traced
operation, ratios, and the traced/untraced throughput ratio.  It also runs
the doubling sweeps and, on `multi`, the library's two-member algorithm on
the traced covers.  Every run ends with a brute-force `threshknap.oracle`
comparison on small inputs of every kind.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import check
import spans
import workloads

SETUP_SPAWNS = 30
# the loop stops at this multiple of --seconds of wall time even if its
# operations have not yet spent --seconds or reached RSS_AFTER
DEADLINE = 3
# median seconds of one bare interpreter spawn on the reference machine
# (2 shared cores, Python 3.11.7) outside its slow spells
BARE_SPAWN_REF_S = 0.052
# what a checker raises on output of an unexpected shape
OUTPUT_ERRORS = (check.CheckFailure, LookupError, TypeError, ValueError, AttributeError)
TRACE_TOLERANCE = (0.05, 0.002)  # relative, absolute seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "graphs.self_s": "s",
    "graphs.parse_graph.self_s": "s",
    "graphs.format_graph.self_s": "s",
    "graphs.maximal_cliques.self_s": "s",
    "graphs.edges_built": "count",
    "graphs.adjacency_masks.hit_ratio": "ratio",
    "graphs.adjacency_masks.retained": "count",
    "threshold.self_s": "s",
    "threshold.recognize.self_s": "s",
    "threshold.recognize.calls": "count",
    "threshold.witness.self_s": "s",
    "threshold.enumerate.self_s": "s",
    "threshold.threshold_to_kp.self_s": "s",
    "split.self_s": "s",
    "split.recognize.self_s": "s",
    "split.witness.self_s": "s",
    "kthreshold.self_s": "s",
    "kthreshold.parse_cover.self_s": "s",
    "kthreshold.enumerate.self_s": "s",
    "kthreshold.product_tuples": "count",
    "kthreshold.yield_ratio": "ratio",
    "kthreshold.enumerate_mis_2t.self_s": "s",
    "knapsack.self_s": "s",
    "knapsack.parse_instance.self_s": "s",
    "knapsack.conflict_graph.self_s": "s",
    "knapsack.conflict_graph.calls": "count",
    "knapsack.decide.self_s": "s",
    "knapsack.solve.self_s": "s",
    "knapsack.witness_items": "count",
    "knapsack.bound.self_s": "s",
    "knapsack.format.self_s": "s",
    "knapsack.size_bits": "bits",
    "trace.overhead_ratio": "ratio",
}


def load_package(root):
    """Import threshknap from `root/src`; exit without a result if absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "threshknap", "cli.py")):
        sys.exit(f"perfbench: no src/threshknap under {root}; run from a checkout root")
    sys.path.insert(0, src)
    import threshknap
    import threshknap.cli
    import threshknap.oracle

    if not os.path.abspath(threshknap.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: threshknap imported from {threshknap.__file__}, not {src}")
    return threshknap, src


def spawn_time(src, module):
    """Seconds from spawning an interpreter to `module` imported, read on
    the monotonic clock the child shares with us."""
    code = (
        f"import time, sys, {module}; "
        "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    )
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True)
    return float(done.stdout) - t0


class Runner:
    """Runs operations through `cli.main` and certifies each one."""

    def __init__(self, pkg, workload, seed, workdir):
        self.cli = pkg.cli
        self.workload = workload
        self.seed = seed
        self.path = os.path.join(workdir, "input")
        self.records = []  # (kind, seconds, stdout bytes, passed) per timed slot
        self.failures = []
        self.facts = {}
        self.attempted = 0
        self.rss_mb = None

    def run(self, op, index):
        """One certified CLI call: (seconds, stdout, passed)."""
        self.attempted += 1
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(op.text)
        out, err = io.StringIO(), io.StringIO()
        failure = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up per call, so a traced run enters the wrapped
                # `cli.main` and its root span covers the whole operation
                code = self.cli.main(op.argv + [self.path])
        except (Exception, SystemExit) as e:  # any escape is a failed operation
            code, failure = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        text = out.getvalue()
        if failure is None:
            try:
                op.verify(code, text)
            except OUTPUT_ERRORS as e:
                failure = f"{type(e).__name__}: {e} (stderr: {err.getvalue().strip()[:200]!r})"
        if failure:
            self.fail(index, op.kind, op.n, failure)
        return dt, text, failure is None

    def fail(self, index, kind, n, message):
        self.failures.append({
            "workload": self.workload, "seed": self.seed, "index": index,
            "kind": kind, "n": n, "error": message[:500],
        })

    def _describe(self, op):
        f = self.facts.setdefault(op.kind, {"n": [op.n, op.n], "bytes": [op.facts["bytes"]] * 2})
        f["n"] = [min(f["n"][0], op.n), max(f["n"][1], op.n)]
        f["bytes"] = [min(f["bytes"][0], op.facts["bytes"]), max(f["bytes"][1], op.facts["bytes"])]
        for key in ("size_bits", "k", "d"):
            if key in op.facts:
                f[key] = max(f.get(key, 0), op.facts[key])

    def loop(self, slots, seconds, on_op=None, at_least=0):
        """Fresh slots until they have spent `seconds` inside `cli.main` and
        `at_least` of them have run, or until the deadline; returns their
        times.  `on_op(op, seconds)` runs after each operation."""
        times, timed = [], 0.0
        deadline = perf_counter() + DEADLINE * seconds
        while (timed < seconds or len(times) < at_least) and perf_counter() < deadline:
            op = workloads.build(next(slots))
            dt, text, ok = self.run(op, len(self.records))
            self._describe(op)
            self.records.append((op.kind, dt, len(text.encode()), ok))
            times.append(dt)
            timed += dt
            if on_op:
                on_op(op, dt)
        return times

    def oracle_sample(self, pkg, kinds):
        """Small inputs of every kind, certified and compared with the
        brute-force oracle; untimed, after everything else."""
        for j, slot in enumerate(workloads.small_slots(kinds, self.seed)):
            op = workloads.build(slot)
            _, text, passed = self.run(op, f"small-{j}")
            if passed and op.oracle:
                try:
                    op.oracle(text, pkg.oracle, pkg.graphs.Graph)
                except OUTPUT_ERRORS as e:
                    self.fail(f"small-{j}", op.kind, op.n, f"oracle: {e}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(times, highest=workloads.TAIL_PERCENTILE):
    """(percentile, value): the nearest-rank value at the highest whole
    percentile up to `highest` with at least ten samples above it.  The cap
    keeps the percentile fixed from run to run, and from version to version,
    whenever a run completes enough operations."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(highest, 0, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0, ordered[-1]


def untraced_run(src, runner, kinds, seconds):
    """The end-to-end loop.  SETUP_SPAWNS pairs of spawns, one importing the
    package and one bare, are spread evenly over the time the operations
    spend; peak RSS is read after RSS_AFTER operations."""
    rss_after = workloads.RSS_AFTER[runner.workload]
    spawn_time(src, "threshknap.cli")  # byte-compiles the package
    setup, bare = [], []
    timed = 0.0

    def spawn_pair():
        setup.append(spawn_time(src, "threshknap.cli"))
        bare.append(spawn_time(src, "os"))

    def on_op(op, dt):
        nonlocal timed
        timed += dt
        if len(runner.records) == rss_after:
            runner.rss_mb = peak_rss_mb()
        if len(setup) < SETUP_SPAWNS and timed >= len(setup) * seconds / SETUP_SPAWNS:
            spawn_pair()

    times = runner.loop(workloads.stream(kinds, runner.seed), seconds, on_op, rss_after)
    while len(setup) < SETUP_SPAWNS:
        spawn_pair()
    if runner.rss_mb is None:
        runner.fail("rss", "peak_rss_mb", 0, f"peak RSS not read: {len(times)} of {rss_after} "
                    "operations ran before the deadline")
        runner.rss_mb = peak_rss_mb()
    p, value = tail(times)
    measured = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": len(times) / sum(times),
    }
    slowness = statistics.median(bare) / BARE_SPAWN_REF_S
    passed = sum(ok for *_, ok in runner.records)
    metrics = {
        "setup_s": BARE_SPAWN_REF_S * statistics.median(a / b for a, b in zip(setup, bare)),
        "op_p50_s": measured["op_p50_s"] / slowness,
        "op_tail_s": measured["op_tail_s"] / slowness,
        "ops_per_s": measured["ops_per_s"] * slowness,
        "peak_rss_mb": runner.rss_mb,
        "pass_ratio": passed / len(times),
    }
    details = {
        "tail_percentile": p, "samples": len(times), "calls": runner.attempted,
        "fail_ratio": 1 - metrics["pass_ratio"], "setup_spawns": len(setup),
        "measured": measured, "slowness": slowness,
    }
    return metrics, details


def per_layer(tracer, runner, ops, hits, calls, untraced_rate, traced_rate):
    s, c = tracer.self_s, tracer.counts
    per_op = lambda x: x / ops  # noqa: E731
    metrics = {name: per_op(s[name[: -len(".self_s")]]) for name in PER_LAYER_UNITS if name.endswith(".self_s")}
    metrics.update({
        "cli.stdout_bytes": per_op(sum(b for _, _, b, _ in runner.records[-ops:])),
        "graphs.edges_built": per_op(c["edges_built"]),
        "graphs.adjacency_masks.hit_ratio": hits / calls if calls else 0.0,
        "graphs.adjacency_masks.retained": tracer.cache.cache_info().currsize,
        "threshold.recognize.calls": per_op(c["recognize_calls"]),
        "kthreshold.product_tuples": per_op(c["product_tuples"]),
        "kthreshold.yield_ratio": c["family_sets"] / c["product_tuples"] if c["product_tuples"] else 0.0,
        "knapsack.conflict_graph.calls": per_op(c["conflict_graph_calls"]),
        "knapsack.witness_items": per_op(c["witness_items"]),
        "knapsack.size_bits": tracer.max_size_bits,
        "trace.overhead_ratio": traced_rate / untraced_rate,
    })
    return metrics


def traced_run(pkg, runner, kinds, seconds):
    """Half the time untraced, half traced; then the two-member algorithm
    on the traced covers and the doubling sweeps, still traced."""
    slots = workloads.stream(kinds, runner.seed)
    untraced = runner.loop(slots, seconds / 2)
    tracer = spans.Tracer(pkg)
    tracer.install()
    covers = []
    mismatches = []

    def on_op(op, dt):
        total, roots = tracer.take()
        tol = TRACE_TOLERANCE[0] * dt + TRACE_TOLERANCE[1]
        if abs(total - dt) > tol or abs(roots - total) > tol:
            mismatches.append((len(runner.records) - 1, op.kind, op.n, dt, total))
        if op.kind == "enumerate_mis_k2" and len(covers) < 8:
            covers.append(op)

    try:
        info0 = tracer.cache.cache_info()
        traced = runner.loop(slots, seconds / 2, on_op)
        info1 = tracer.cache.cache_info()
        hits = info1.hits - info0.hits
        calls = hits + info1.misses - info0.misses
        metrics = per_layer(tracer, runner, len(traced), hits, calls,
                            len(untraced) / sum(untraced), len(traced) / sum(traced))
        metrics["kthreshold.enumerate_mis_2t.self_s"] = two_member(pkg, tracer, runner, covers)
        sweep = doubling_sweep(tracer, runner)
    finally:
        tracer.uninstall()
    for index, kind, n, dt, total in mismatches:
        runner.fail(index, kind, n, f"trace: self times sum to {total}, op took {dt}")
    return metrics, {"sweep": sweep, "traced_ops": len(traced), "untraced_ops": len(untraced)}


def two_member(pkg, tracer, runner, covers):
    """Mean self seconds of `enumerate_mis_2t` per call on the covers."""
    kt = pkg.kthreshold
    before = tracer.self_s["kthreshold.enumerate_mis_2t"]
    for j, op in enumerate(covers):
        runner.attempted += 1
        fam = kt.enumerate_mis_2t(kt.parse_cover(op.text))
        try:
            op.verify(0, "".join(" ".join(map(str, s)) + "\n" for s in fam))
        except OUTPUT_ERRORS as e:
            runner.fail(f"2t-{j}", op.kind, op.n, f"enumerate_mis_2t: {e}")
    tracer.take()
    spent = tracer.self_s["kthreshold.enumerate_mis_2t"] - before
    return spent / len(covers) if covers else 0.0


def doubling_sweep(tracer, runner):
    """Self seconds per layer at n, 2n and 4n for the workload's main
    operation kinds, with input bytes and size bit length."""
    kinds = {k.name: k for k in workloads.WORKLOADS[runner.workload]}
    rows = []
    for name, n0 in workloads.SWEEPS[runner.workload]:
        for n in (n0, 2 * n0, 4 * n0):
            op = workloads.build(workloads.Slot(kinds[name], n, f"{runner.seed}:sweep:{name}:{n}"))
            before = dict(tracer.self_s)
            dt, _, _ = runner.run(op, f"sweep-{name}-{n}")
            tracer.take()
            layers = {
                g: round(tracer.self_s[g] - before.get(g, 0.0), 6)
                for g in spans.GROUPS
                if tracer.self_s[g] - before.get(g, 0.0) > 0
            }
            rows.append({"kind": name, "n": n, "seconds": round(dt, 6), **op.facts, "self_s": layers})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    pkg, src = load_package(root)
    kinds = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(pkg, args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, details = traced_run(pkg, runner, kinds, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, details = untraced_run(src, runner, kinds, args.seconds)
            units = END_TO_END_UNITS
        runner.oracle_sample(pkg, kinds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    by_kind = {}
    for kind, dt, _, ok in runner.records:
        by_kind.setdefault(kind, []).append(dt)
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "kinds": {k: {"ops": len(v), "p50_s": round(statistics.median(v), 6), **runner.facts[k]}
                  for k, v in sorted(by_kind.items())},
        "failures": runner.failures,
    })
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    print("details " + json.dumps(details, sort_keys=True))
    for f in runner.failures:
        print("FAILED " + json.dumps(f), file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
