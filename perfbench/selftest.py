"""Self-tests of the benchmark's generators, checkers and tracer.

    python3 perfbench/selftest.py          (from the repository root)
    python3 -m pytest perfbench/selftest.py

They need `src/threshknap` beside `perfbench/`, like the benchmark itself.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import threshknap  # noqa: E402
import threshknap.cli  # noqa: E402


def _prefix(name, seed, count):
    slots = workloads.stream(workloads.WORKLOADS[name], seed)
    ops = [workloads.build(next(slots)) for _ in range(count)]
    return [(op.kind, op.argv, op.text) for op in ops]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _prefix(name, 7, 14) == _prefix(name, 7, 14)
        assert _prefix(name, 7, 14) != _prefix(name, 8, 14)


def test_generator_imports_nothing_from_the_package():
    code = (
        "import sys, gen, check, workloads; "
        "bad = [m for m in sys.modules if m.startswith('threshknap')]; "
        "sys.exit(1 if bad else 0)"
    )
    env = dict(os.environ, PYTHONPATH=HERE)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE)
    assert done.returncode == 0


def test_sizes_spread_evenly_over_a_prefix():
    kind = workloads.KP1D[0]
    slots = workloads.stream((kind,), 3)
    sizes = sorted(next(slots).n for _ in range(16))
    grid = [kind.lo * (kind.hi / kind.lo) ** ((i + 0.5) / 16) for i in range(16)]
    assert all(abs(a - b) <= 0.1 * b for a, b in zip(sizes, grid)), (sizes, grid)


def _forbidden_sets(adj, size, shapes):
    for verts in combinations(range(1, len(adj) + 1), size):
        m = check.mask_of(verts)
        degs = sorted(gen.popcount(adj[v - 1] & m) for v in verts)
        for tag in shapes:
            count, edges, want = check.SHAPES[tag]
            if count == size and degs == want and sum(degs) == 2 * edges:
                yield verts


def test_planted_cycle_is_the_only_forbidden_subgraph():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randint(9, 13)
        adj = gen.planted_cycle(rng, n, 4)
        assert list(_forbidden_sets(adj, 4, ("2K2", "P4", "C4"))) == [tuple(range(n - 3, n + 1))]
        adj = gen.planted_cycle(rng, n, 5)
        assert list(_forbidden_sets(adj, 4, ("2K2", "C4"))) == []
        assert list(_forbidden_sets(adj, 5, ("C5",))) == [tuple(range(n - 4, n + 1))]


def _run_cli(argv, text):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "input")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = threshknap.cli.main(argv + [path])
    return code, out.getvalue()


def _fails(verify, code, text):
    try:
        verify(code, text)
    except check.CheckFailure:
        return True
    return False


def _op(name, kind, n, seed=11):
    kinds = {k.name: k for k in workloads.WORKLOADS[name]}
    return workloads.build(workloads.Slot(kinds[kind], n, f"{seed}:selftest"))


def test_corrupted_outputs_fail():
    # wrong profit
    op = _op("kp1d", "solve_d1", 30)
    code, out = _run_cli(op.argv, op.text)
    assert not _fails(op.verify, code, out)
    obj = json.loads(out)
    obj["profit"] = str(int(obj["profit"]) + 1)
    assert _fails(op.verify, code, json.dumps(obj))
    # non-minimal witness: add a compatible item the witness does not need
    op = _op("kp1d", "check", 40)
    code, out = _run_cli(op.argv, op.text)
    assert code == 1 and not _fails(op.verify, code, out)
    obj = json.loads(out)
    inst = json.loads(op.text)
    size = {it["id"]: int(it["size"]) for it in inst["items"]}
    cap = int(inst["capacity"])
    top = max(size[w] for w in obj["witness"])
    extra = next(i for i, s in sorted(size.items(), key=lambda x: x[1])
                 if i not in obj["witness"] and s + top <= cap)
    obj["witness"].append(extra)
    assert _fails(op.verify, code, json.dumps(obj))
    # wrong exit code
    assert _fails(op.verify, 0, out)
    # wrong sequence: flip one bit after the first
    op = _op("graphs", "recognize", 20)
    code, out = _run_cli(op.argv, op.text)
    assert not _fails(op.verify, code, out)
    bits, rest = out.split("\n", 1)
    flipped = bits[:5] + ("1" if bits[5] == "0" else "0") + bits[6:]
    assert _fails(op.verify, code, flipped + "\n" + rest)
    # missing set, wrong count, wrong witness
    op = _op("graphs", "enumerate_mis", 20)
    code, out = _run_cli(op.argv, op.text)
    assert not _fails(op.verify, code, out)
    assert _fails(op.verify, code, "".join(out.splitlines(True)[1:]))
    op = _op("multi", "count_mis_k2", 20)
    code, out = _run_cli(op.argv, op.text)
    assert not _fails(op.verify, code, out)
    assert _fails(op.verify, code, str(int(out) + 1) + "\n")
    op = _op("graphs", "witness_c4_planted", 12)
    code, out = _run_cli(op.argv, op.text)
    assert not _fails(op.verify, code, out)
    assert _fails(op.verify, code, out.replace("C4", "P4"))


def test_runner_counts_a_wrong_output_as_a_failure():
    class Wrong:
        class cli:
            @staticmethod
            def main(argv):
                print("0")
                return 0

    os.makedirs(WORK, exist_ok=True)
    runner = run.Runner(Wrong, "multi", 1, WORK)
    _, _, passed = runner.run(_op("multi", "count_mis_k2", 20), 0)
    assert not passed and runner.attempted == 1 and len(runner.failures) == 1


def test_rss_not_read_before_the_deadline_is_a_failure():
    os.makedirs(WORK, exist_ok=True)
    runner = run.Runner(threshknap, "kp1d", 1, WORK)
    saved = run.DEADLINE, run.SETUP_SPAWNS
    run.DEADLINE, run.SETUP_SPAWNS = 0.05, 1
    try:
        metrics, details = run.untraced_run(os.path.join(ROOT, "src"), runner, workloads.KP1D, 1.0)
    finally:
        run.DEADLINE, run.SETUP_SPAWNS = saved
    assert details["samples"] < workloads.RSS_AFTER["kp1d"]
    assert [f["index"] for f in runner.failures] == ["rss"] and metrics["peak_rss_mb"] > 0


def test_tracer_restores_bindings_and_accounts_for_time():
    before = {m: dict(vars(getattr(threshknap, m))) for m in spans.MODULES}
    tracer = spans.Tracer(threshknap)
    tracer.install()
    named = {f"{m}.{a}" for m in spans.MODULES for a, o in vars(getattr(threshknap, m)).items()
             if getattr(o, "__wrapped__", None) is not None}
    assert set(spans.GROUP_OF) <= named
    try:
        os.makedirs(WORK, exist_ok=True)
        runner = run.Runner(threshknap, "kp1d", 1, WORK)
        dt, _, ok = runner.run(_op("kp1d", "solve_d1", 60), 0)
        root = [name for name, _, _, parent in tracer.spans if parent < 0]
        total, roots = tracer.take()
    finally:
        tracer.uninstall()
    assert ok and root == ["cli.main"] and abs(total - roots) < 1e-6 and 0 < total <= dt
    assert tracer.self_s["knapsack.conflict_graph"] > 0 and tracer.counts["recognize_calls"] == 2
    after = {m: dict(vars(getattr(threshknap, m))) for m in spans.MODULES}
    assert before == after


def test_tail_percentile_leaves_ten_samples_beyond():
    times = [i / 100 for i in range(1, 101)]
    p, value = run.tail(times)
    assert p == 90 and sum(t > value for t in times) == 10
    p, value = run.tail(times[:40])
    assert p == 75 and sum(t > value for t in times[:40]) == 10


def teardown_module():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(WORK))


def main():
    failed = 0
    try:
        for name, fn in sorted(globals().items()):
            if name.startswith("test_"):
                try:
                    fn()
                    print(f"PASS {name}")
                except Exception as e:  # report every test, then fail the run
                    failed += 1
                    print(f"FAIL {name}: {e!r}")
    finally:
        teardown_module()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
