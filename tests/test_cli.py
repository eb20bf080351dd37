import json
import os
import subprocess
import sys

import pytest

import threshknap
from threshknap import cli

PAW_GRAPH = "p 4 4\ne 1 2\ne 1 4\ne 2 4\ne 3 4\n"
C4_GRAPH = "p 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
HOUSE_COVER = "k 2\np 5 4\ne 1 2\ne 2 3\ne 2 4\ne 3 4\np 5 2\ne 1 5\ne 4 5\n"
BAD_KP = json.dumps(
    {
        "capacity": "26",
        "items": [
            {"id": f"a{i + 1}", "profit": "1", "size": str(s)}
            for i, s in enumerate((12, 10, 11, 8, 9))
        ],
    }
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def run(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_recognize_threshold_graph(write, capsys):
    rc, out, err = run(capsys, ["recognize", write("g", PAW_GRAPH)])
    assert rc == 0
    assert out.splitlines()[0] == "1101"
    assert out.splitlines()[1].startswith("v ")


def test_recognize_non_threshold(write, capsys):
    rc, out, _ = run(capsys, ["recognize", "--witness", write("g", C4_GRAPH)])
    assert rc == 1
    assert "not a threshold graph" in out
    assert "induced C4:" in out


def test_recognize_split_partition(write, capsys):
    rc, out, _ = run(capsys, ["recognize", "--split", write("g", PAW_GRAPH)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("K ") and lines[1].startswith("S ")


def test_recognize_parse_error(write, capsys):
    rc, out, err = run(capsys, ["recognize", write("g", "p 2 1\ne 9 9\n")])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "line 2" in err


def test_recognize_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["recognize", str(tmp_path / "nope")])
    assert rc == 2
    assert "error:" in err


def test_enumerate_sequence_file(write, capsys):
    path = write("s", "1101\n")
    rc, out, _ = run(capsys, ["enumerate", "mis", path])
    assert rc == 0
    assert out.splitlines() == ["4", "1 3", "2 3"]
    rc, out, _ = run(capsys, ["enumerate", "is", "--count-only", path])
    assert (rc, out.strip()) == (0, "6")
    rc, out, _ = run(capsys, ["enumerate", "mc", path])
    assert out.splitlines() == ["3 4", "1 2 4"]
    rc, out, _ = run(capsys, ["enumerate", "im", path])
    assert out.splitlines() == ["1 3", "2 3"]


def test_enumerate_counts_match_family_sizes(write, capsys):
    path = write("s", "110100\n")
    for kind in ("mis", "im", "is", "mc"):
        rc, fam, _ = run(capsys, ["enumerate", kind, path])
        rc, cnt, _ = run(capsys, ["enumerate", kind, "--count-only", path])
        assert int(cnt.strip()) == len(fam.splitlines())


@pytest.mark.parametrize("k", [2, 3])
def test_cover_counts_match_listed_families(k, write, capsys):
    # counts come from the masks; the listing from canonical vertex tuples
    for seed in range(12):
        rc, text, _ = run(capsys, ["gen", "cover", "--n", str(4 + 3 * seed), "--k", str(k), "--seed", str(seed)])
        path = write(f"c{seed}", text)
        for kind in ("mis", "im", "mc"):
            rc, fam, _ = run(capsys, ["enumerate", kind, path])
            assert rc == 0
            rc, cnt, _ = run(capsys, ["enumerate", kind, "--count-only", path])
            assert rc == 0 and cnt == f"{len(fam.splitlines())}\n"


def test_enumerate_threshold_graph_file(write, capsys):
    rc, out, _ = run(capsys, ["enumerate", "mis", write("g", PAW_GRAPH)])
    assert rc == 0
    assert out.splitlines() == ["4", "1 3", "2 3"]


def test_enumerate_non_threshold_graph_needs_cover(write, capsys):
    rc, out, err = run(capsys, ["enumerate", "mis", write("g", C4_GRAPH)])
    assert rc == 1
    assert "not a threshold graph" in err
    assert "cover" in err


def test_enumerate_cover_file(write, capsys):
    path = write("c", HOUSE_COVER)
    rc, out, _ = run(capsys, ["enumerate", "mis", path])
    assert out.splitlines() == ["1 3", "1 4", "2 5", "3 5"]
    rc, out, _ = run(capsys, ["enumerate", "is", "--count-only", path])
    assert out.strip() == "9"
    rc, out, _ = run(capsys, ["enumerate", "mc", path])
    assert out.splitlines() == ["1", "2", "3", "4", "5"]


def test_convert_graph_to_kp(write, capsys):
    rc, out, _ = run(capsys, ["convert", "graph-to-kp", write("g", PAW_GRAPH)])
    assert rc == 0
    inst = json.loads(out)
    assert [it["id"] for it in inst["items"]] == ["a1", "a2", "a3", "a4"]
    assert "capacity" in inst


def test_convert_sequence_to_kp_with_profits(write, capsys):
    rc, out, _ = run(
        capsys,
        ["convert", "graph-to-kp", "--profits", "1,1,1,10", write("s", "1001\n")],
    )
    assert rc == 0
    inst = json.loads(out)
    assert inst["capacity"] == "7"
    assert [it["size"] for it in inst["items"]] == ["4", "2", "1", "7"]
    assert inst["items"][3]["profit"] == "10"


def test_convert_profits_length_mismatch(write, capsys):
    rc, _, err = run(
        capsys, ["convert", "graph-to-kp", "--profits", "1,2", write("s", "1001\n")]
    )
    assert rc == 2
    assert "error:" in err


def test_convert_kp_to_graph_round_trip(write, capsys):
    rc, out, _ = run(
        capsys, ["convert", "graph-to-kp", write("s", "1001\n")]
    )
    path = write("i.json", out)
    rc, out, _ = run(capsys, ["convert", "kp-to-graph", path])
    assert rc == 0
    assert "EQUIVALENT" in out
    assert "p 4 3" in out


def test_convert_kp_to_graph_not_equivalent(write, capsys):
    rc, out, _ = run(capsys, ["convert", "kp-to-graph", write("i.json", BAD_KP)])
    assert rc == 1
    assert "NOT EQUIVALENT" in out
    assert "witness: a1 a2 a3" in out


def test_check_reports_json(write, capsys):
    rc, out, _ = run(capsys, ["check", write("i.json", BAD_KP)])
    assert rc == 1
    rep = json.loads(out)
    assert rep["equivalent"] is False
    assert rep["witness"] == ["a1", "a2", "a3"]


def test_solve_happy_path(write, capsys):
    inst = {
        "capacity": "7",
        "items": [
            {"id": "a1", "profit": "1", "size": "4"},
            {"id": "a2", "profit": "1", "size": "2"},
            {"id": "a3", "profit": "1", "size": "1"},
            {"id": "a4", "profit": "10", "size": "7"},
        ],
    }
    rc, out, _ = run(capsys, ["solve", write("i.json", json.dumps(inst))])
    assert rc == 0
    sol = json.loads(out)
    assert sol["chosen"] == ["a4"]
    assert sol["profit"] == "10"


def test_solve_not_equivalent_prints_report(write, capsys):
    rc, out, _ = run(capsys, ["solve", write("i.json", BAD_KP)])
    assert rc == 1
    assert json.loads(out)["equivalent"] is False


def test_solve_multidimensional(write, capsys):
    inst = {
        "capacities": ["5", "5"],
        "items": [
            {"id": "a1", "profit": "5", "sizes": ["3", "5"]},
            {"id": "a2", "profit": "4", "sizes": ["1", "5"]},
            {"id": "a3", "profit": "3", "sizes": ["2", "5"]},
            {"id": "a4", "profit": "2", "sizes": ["4", "1"]},
            {"id": "a5", "profit": "1", "sizes": ["5", "1"]},
        ],
    }
    rc, out, _ = run(capsys, ["solve", write("i.json", json.dumps(inst))])
    assert rc == 0
    sol = json.loads(out)
    assert sol["chosen"] == ["a1"]
    assert sol["dimension_totals"] == ["3", "5"]


def test_bound_bp(write, capsys):
    inst = {
        "capacity": "1",
        "items": [
            {"id": f"a{i}", "profit": "1", "size": "0.6"} for i in range(1, 5)
        ],
    }
    rc, out, _ = run(capsys, ["bound", "bp", write("i.json", json.dumps(inst))])
    assert (rc, out.strip()) == (0, "4")


def test_bound_bp_rejects_multidimensional(write, capsys):
    inst = {
        "capacities": ["1", "1"],
        "items": [{"id": "a1", "profit": "1", "sizes": ["0.5", "0.5"]}],
    }
    rc, _, err = run(capsys, ["bound", "bp", write("i.json", json.dumps(inst))])
    assert rc == 2
    assert "one-dimensional" in err


def test_bound_dvp_on_a_clique_deeper_than_the_recursion_limit(write):
    # 1,200 items conflict pairwise in both dimensions; with two more on
    # each side the union is not threshold, so Bron-Kerbosch runs on a
    # 1,202-vertex clique.  Run as its own process: the union graph is large.
    items = [{"id": f"a{i}", "profit": "1", "sizes": ["3/5", "3/5"]} for i in range(1, 1201)]
    items += [{"id": f"b{i}", "profit": "1", "sizes": ["3/5", "1/10"]} for i in (1, 2)]
    items += [{"id": f"c{i}", "profit": "1", "sizes": ["1/10", "3/5"]} for i in (1, 2)]
    path = write("i.json", json.dumps({"capacities": ["1", "1"], "items": items}))
    src = os.path.dirname(os.path.dirname(threshknap.__file__))
    got = subprocess.run(
        [sys.executable, "-m", "threshknap.cli", "bound", "dvp", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (got.returncode, got.stdout, got.stderr) == (0, "1202\n", "")


def test_closed_stdout_stops_quietly_with_141(write, capsys):
    # the reader takes one line of a multi-megabyte family and closes the
    # pipe: no error line, no shutdown noise, exit 128 + SIGPIPE
    assert cli.main(["gen", "threshold", "--n", "3000"]) == 0
    path = write("seq", capsys.readouterr().out)
    src = os.path.dirname(os.path.dirname(threshknap.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "threshknap.cli", "enumerate", "mis", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_deeply_nested_json_is_input_error(write):
    # the JSON decoder recurses once per bracket
    path = write("i.json", "[" * 100_000)
    src = os.path.dirname(os.path.dirname(threshknap.__file__))
    got = subprocess.run(
        [sys.executable, "-m", "threshknap.cli", "check", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr.startswith("error: ") and got.stderr.count("\n") == 1
    assert "Traceback" not in got.stderr


def planted_cycle_graph(n, length):
    """A threshold graph (length 4) or a split graph (length 5) on 1..n-length,
    plus a cycle on the top labels joined to its clique side: the only
    forbidden subgraphs sit on the last labels."""
    base = n - length
    clique = range(1, base + 1, 2)
    # the odd vertices form a clique and see every later vertex
    edges = {(k, j) for k in clique for j in range(k + 1, base + 1)}
    if length == 5:  # no clique vertex sees a multiple of 6: still split
        edges = {(k, j) for k, j in edges if j % 2 or j % 3}
    ring = range(base + 1, n + 1)
    for i, u in enumerate(ring):
        edges.add(tuple(sorted((u, ring[(i + 1) % length]))))
        edges.update((k, u) for k in clique)
    lines = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n", edges


@pytest.mark.parametrize(
    "length,flags,header,tags",
    [
        (4, [], "not a threshold graph", {"2K2": 2, "P4": 3, "C4": 4}),
        (5, ["--split"], "not a split graph", {"2K2": 2, "C4": 4, "C5": 5}),
    ],
)
def test_recognize_witness_on_a_planted_cycle_at_160_vertices(write, length, flags, header, tags):
    # a scan over 4- and 5-subsets would take minutes here
    text, edges = planted_cycle_graph(160, length)
    src = os.path.dirname(os.path.dirname(threshknap.__file__))
    got = subprocess.run(
        [sys.executable, "-m", "threshknap.cli", "recognize", *flags, "--witness", write("g", text)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )
    assert (got.returncode, got.stderr) == (1, "")
    first, second = got.stdout.splitlines()
    assert first == header
    tag, _, verts = second.removeprefix("induced ").partition(": ")
    verts = [int(v) for v in verts.split()]
    inside = [(u, v) for u, v in edges if u in verts and v in verts]
    degrees = sorted(sum(v in e for e in inside) for v in verts)
    assert len(set(verts)) == len(verts) == (5 if tag == "C5" else 4)
    assert len(inside) == tags[tag]
    assert degrees == {"2K2": [1] * 4, "P4": [1, 1, 2, 2], "C4": [2] * 4, "C5": [2] * 5}[tag]


def test_bound_dvp_and_dbp(write, capsys):
    dvp = {
        "capacities": ["1", "1"],
        "items": [
            {"id": "a1", "profit": "1", "sizes": ["0.6", "0.1"]},
            {"id": "a2", "profit": "1", "sizes": ["0.6", "0.1"]},
            {"id": "a3", "profit": "1", "sizes": ["0.1", "0.6"]},
            {"id": "a4", "profit": "1", "sizes": ["0.1", "0.6"]},
        ],
    }
    rc, out, _ = run(capsys, ["bound", "dvp", write("a.json", json.dumps(dvp))])
    assert (rc, out.strip()) == (0, "2")
    dbp = {
        "capacities": ["1", "1"],
        "items": [
            {"id": f"a{i}", "profit": "1", "sizes": ["0.6", "0.6"]}
            for i in range(1, 4)
        ],
    }
    rc, out, _ = run(capsys, ["bound", "dbp", write("b.json", json.dumps(dbp))])
    assert (rc, out.strip()) == (0, "3")


def test_gen_threshold_parses_back(capsys):
    rc, out, _ = run(capsys, ["gen", "threshold", "--n", "10", "--seed", "3"])
    assert rc == 0
    from threshknap.threshold import parse_sequence

    assert parse_sequence(out).n == 10


def test_gen_cover_parses_back(capsys):
    rc, out, _ = run(capsys, ["gen", "cover", "--n", "6", "--k", "3", "--seed", "3"])
    assert rc == 0
    from threshknap.kthreshold import parse_cover

    cover = parse_cover(out)
    assert cover.k == 3 and cover.n == 6


def test_gen_kp_is_equivalent_by_construction(capsys):
    rc, out, _ = run(capsys, ["gen", "kp", "--n", "7", "--seed", "11"])
    assert rc == 0
    from threshknap.knapsack import check_equivalence_kp, parse_instance

    assert check_equivalence_kp(parse_instance(out)).equivalent


def test_gen_deterministic(capsys):
    rc, a, _ = run(capsys, ["gen", "kp", "--n", "6", "--seed", "9"])
    rc, b, _ = run(capsys, ["gen", "kp", "--n", "6", "--seed", "9"])
    rc, c, _ = run(capsys, ["gen", "kp", "--n", "6", "--seed", "10"])
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "argv,text",
    [
        (["recognize"], "p 10000000000000 0\n"),
        (["enumerate", "mis"], "k 2\n1\np 10000000000000 0\n"),
        (["enumerate", "mis"], "k 1\np 0 0\n"),
        (["check"], '{"capacity": "1", "items": [{"id": "a", "profit": %s, "size": "1"}]}' % ("7" * 4301)),
    ],
)
def test_oversized_or_empty_input_is_input_error(write, capsys, argv, text):
    # a huge `p` header once exhausted memory (exit 3); an empty cover
    # member and a JSON integer past the digit limit raised plain ValueError
    rc, out, err = run(capsys, argv + [write("f", text)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_json_is_input_error(write, capsys):
    rc, _, err = run(capsys, ["check", write("i.json", "{nope")])
    assert rc == 2
    assert "error:" in err


def _row_instances():
    """An equivalent row of capacity 1: 18 items above 1/2 that conflict
    pairwise, 20 of size 1/400 that fit beside any of them; the same with
    a second, conflict-free row; and a row of three pairwise-compatible
    items that overfill it together, in one and two rows."""
    sizes = [f"{20 + j}/40" for j in range(1, 19)] + ["1/400"] * 20
    one = {
        "capacity": "1",
        "items": [{"id": f"a{j + 1}", "profit": str(j % 7), "size": s} for j, s in enumerate(sizes)],
    }
    two = {
        "capacities": ["1", "1"],
        "items": [
            {"id": f"a{j + 1}", "profit": str(j % 7), "sizes": [s, "1/400"]}
            for j, s in enumerate(sizes)
        ],
    }
    bad = {"capacity": "10", "items": [{"id": f"b{j}", "profit": "1", "size": "4"} for j in (1, 2, 3)]}
    bad2 = {
        "capacities": ["10", "1"],
        "items": [{"id": f"b{j}", "profit": "1", "sizes": ["4", "1/3"]} for j in (1, 2, 3)],
    }
    return one, two, bad, bad2


def test_instance_commands_build_no_item_objects_or_per_item_fractions(write, capsys, monkeypatch):
    # check, solve, bound and kp-to-graph read the parsed instance's
    # integer rows: KpItem, DkpItem and BpInstance refuse construction, and
    # Fractions are only made for printed totals, fewer than one per item
    one, two, bad, bad2 = _row_instances()
    paths = {name: write(f"{name}.json", json.dumps(obj)) for name, obj in
             (("one", one), ("two", two), ("bad", bad), ("bad2", bad2))}
    calls = [
        (["check", paths["one"]], 0), (["check", paths["two"]], 0),
        (["check", paths["bad"]], 1), (["check", paths["bad2"]], 1),
        (["solve", paths["one"]], 0), (["solve", paths["two"]], 0), (["solve", paths["bad"]], 1),
        (["bound", "bp", paths["one"]], 0), (["bound", "bp", paths["two"]], 2),
        (["bound", "dvp", paths["one"]], 0), (["bound", "dvp", paths["two"]], 0),
        (["bound", "dbp", paths["one"]], 0), (["bound", "dbp", paths["two"]], 0),
        (["convert", "kp-to-graph", paths["one"]], 0),
    ]
    plain = [run(capsys, argv) for argv, _ in calls]
    assert [rc for rc, _, _ in plain] == [code for _, code in calls]

    from fractions import Fraction

    from threshknap import knapsack

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built on an instance path")

    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for name in ("KpItem", "DkpItem", "BpInstance"):
        stub = type(name, (), {"__new__": refuse})
        monkeypatch.setattr(knapsack, name, stub)
        monkeypatch.setattr(cli, name, stub, raising=False)
    monkeypatch.setattr(knapsack, "Fraction", CountedFraction)
    for (argv, _), want in zip(calls, plain):
        made.clear()
        assert run(capsys, argv) == want
        assert len(made) < len(one["items"]) // 4, argv


def test_internal_error_exits_3_with_one_stderr_line(write, capsys, monkeypatch):
    # a fault of the program, not of the input: no traceback, exit 3
    def broken(inst):
        raise RuntimeError("lost\ninvariant")

    monkeypatch.setattr(cli, "check_equivalence_kp", broken)
    path = write("i.json", json.dumps(_row_instances()[0]))
    rc, out, err = run(capsys, ["check", path])
    assert (rc, out, err) == (3, "", "error: internal: RuntimeError: lost invariant\n")


def _unions_that_are_not_threshold(d, seed, count=12):
    """Instances of d rows on up to 12 items whose union conflict graph is
    not threshold: half built row by row from relabelled sequences, so
    every row (and the union) is equivalent, half with small random sizes,
    mostly not equivalent.  Profits in 0..3 give many ties."""
    import random

    from threshknap.knapsack import DkpInstance, DkpItem, conflict_cover_dkp
    from threshknap.threshold import CreationSequence, _recognize, sequence_from_bits, threshold_to_kp

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 12)
        profits = [rng.randint(0, 3) for _ in range(n)]
        if len(out) % 2 == 0:
            rows = []
            for _ in range(d):
                vmap = list(range(1, n + 1))
                rng.shuffle(vmap)
                cs = sequence_from_bits("1" + "".join(rng.choice("01") for _ in range(n - 1)), vmap)
                row = threshold_to_kp(cs)
                rows.append(([it.size for it in row.items], row.capacity))
        else:
            rows = [([rng.randint(1, 9) for _ in range(n)], rng.randint(8, 16)) for _ in range(d)]
        items = [
            DkpItem(f"a{j + 1}", profits[j], tuple(sizes[j] for sizes, _ in rows))
            for j in range(n)
        ]
        inst = DkpInstance(items, [cap for _, cap in rows])
        union = conflict_cover_dkp(inst).union_masks
        if not isinstance(_recognize(union), CreationSequence):
            out.append(inst)
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_check_and_solve_on_non_threshold_unions_match_reference(d, write, capsys):
    from threshknap import oracle
    from threshknap.knapsack import format_instance, format_rational

    instances = _unions_that_are_not_threshold(d, seed=d)
    equivalent = 0
    for j, inst in enumerate(instances):
        path = write(f"i{j}.json", format_instance(inst))
        ref = oracle.reference_check_equivalence_dkp(inst)
        rc, out, _ = run(capsys, ["check", path])
        report = json.loads(out)
        assert rc == (0 if ref.equivalent else 1)
        assert report["equivalent"] == ref.equivalent
        assert report["witness"] == (list(ref.witness) if ref.witness else None)
        rc, solved, _ = run(capsys, ["solve", path])
        if not ref.equivalent:
            assert (rc, solved) == (1, out)  # the refusal prints the same report
            continue
        equivalent += 1
        sol = oracle.reference_solve_dkp_equivalent(inst)
        got = json.loads(solved)
        assert rc == 0
        assert got["chosen"] == list(sol.chosen)
        assert got["profit"] == format_rational(sol.profit)
        assert got["dimension_totals"] == [format_rational(t) for t in sol.dimension_totals]
    assert 4 <= equivalent <= len(instances) - 3  # both verdicts are exercised
