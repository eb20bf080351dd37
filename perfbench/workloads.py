"""The three benchmark workloads as seeded, endless streams of operations.

An operation is one CLI call (`argv` plus the input `text` it reads) with a
`verify(code, stdout)` certifier that raises `check.CheckFailure`.  The
stream yields slots (kind, size, content seed); `build(slot)` makes the
slot's input, with its vertex or item labels shuffled.

Sizes are drawn per kind from a log-uniform law through a shifted van der
Corput sequence, so every prefix of the stream spreads its sizes evenly and
a run cut after a fixed time sees the same mix on every seed.  Kinds are
interleaved in a seeded pattern repeated throughout the stream.

Why these workloads:

- kp1d: the paper's headline path, one knapsack row.  `solve` scans the
  full family of an equivalent (superincreasing) row and solves it twice;
  `check` on small-number rows exits early, shrinks a witness and prints the
  whole conflict graph.  Same layers, used differently.
- graphs: graph-file recognition (parser, threshold and split peeling,
  witness search).  It never enters the knapsack decide path or
  `kthreshold`, so a knapsack-only change should leave it unchanged.
- multi: several threshold graphs at once: the cover tuple product, the
  maximality filter, d-dimensional solves and Bron-Kerbosch behind the
  packing bounds.  kp1d never touches these.

This module imports nothing from `threshknap`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import check
import gen


@dataclass
class Op:
    argv: list
    text: str
    verify: object  # (exit code, stdout) -> None; raises CheckFailure
    n: int
    facts: dict = field(default_factory=dict)  # input descriptors
    oracle: object = None  # (stdout, oracle module, Graph type) -> None
    kind: str = ""


@dataclass(frozen=True)
class Kind:
    name: str
    weight: int  # slots in the interleaving pattern
    lo: int  # size range
    hi: int
    make: object  # (rng, n) -> Op


@dataclass(frozen=True)
class Slot:
    kind: Kind
    n: int
    key: str  # seeds the content


def build(slot):
    op = slot.kind.make(random.Random(slot.key), slot.n)
    op.kind = slot.kind.name
    return op


def van_der_corput(j):
    x, denom = 0.0, 1.0
    while j:
        denom *= 2
        j, bit = divmod(j, 2)
        x += bit / denom
    return x


def stream(kinds, seed):
    """Endless slots; the same seed yields the same inputs."""
    rng = random.Random(f"{seed}:pattern")
    pattern = [k for k in kinds for _ in range(k.weight)]
    rng.shuffle(pattern)
    shift = {k.name: rng.random() for k in kinds}
    drawn = {k.name: 0 for k in kinds}
    i = 0
    while True:
        kind = pattern[i % len(pattern)]
        u = (van_der_corput(drawn[kind.name]) + shift[kind.name]) % 1.0
        drawn[kind.name] += 1
        yield Slot(kind, round(kind.lo * (kind.hi / kind.lo) ** u), f"{seed}:{i}")
        i += 1


def small_slots(kinds, seed, lo=8, hi=12):
    """One small instance of every kind, for the brute-force comparison."""
    rng = random.Random(f"{seed}:small")
    return [Slot(k, rng.randint(lo, hi), f"{seed}:small:{k.name}") for k in kinds]


# ---------------------------------------------------------------------------
# oracle adapters


def _oracle_instance(inst):
    """The structural view `threshknap.oracle` consumes."""
    items = []
    for v in range(1, inst.n + 1):
        sizes = tuple(dim[v - 1] for dim in inst.sizes)
        items.append(SimpleNamespace(id=f"a{v}", profit=inst.profits[v - 1], size=sizes[0], sizes=sizes))
    return SimpleNamespace(items=items, capacity=inst.capacities[0], capacities=inst.capacities)


def _oracle_graph(Graph, adj):
    edges = {(u, v) for u in range(1, len(adj) + 1) for v in gen.bits_of(adj[u - 1]) if u < v}
    return Graph(len(adj), frozenset(edges))


def _set_list(masks):
    return sorted(tuple(gen.bits_of(m)) for m in masks)


def _agree(got, want, what):
    check.require(got == want, f"{what}: output {got!r}, oracle {want!r}")


def _printed_profit(out):
    return Fraction(check._json(out)["profit"])


# ---------------------------------------------------------------------------
# kp1d


def _solve(rng, n, d=1):
    seqs = [gen.random_sequence(rng, n) for _ in range(d)]
    inst = gen.equivalent_instance(rng, seqs)
    perm = gen.permutation(rng, n)
    seqs = [s.relabel(perm) for s in seqs]
    inst = inst.relabel(perm)
    text = inst.text()

    def verify(code, out):
        check.check_solution(out, inst, check.optimum(inst, seqs), code)

    def oracle(out, O, Graph):
        solver = O.brute_solve_kp if d == 1 else O.brute_solve_dkp
        _agree(_printed_profit(out), solver(_oracle_instance(inst))[0], "profit")

    facts = {"bytes": len(text), "size_bits": gen.size_bits(inst), "d": d}
    return Op(["solve"], text, verify, n, facts, oracle)


def _check(rng, n):
    inst = gen.small_number_instance(rng, n).relabel(gen.permutation(rng, n))
    text = inst.text()

    def verify(code, out):
        check.check_report(out, inst, code)

    def oracle(out, O, Graph):
        _agree(check._json(out)["equivalent"], O.brute_check_property_p(_oracle_instance(inst))[0], "verdict")

    facts = {"bytes": len(text), "size_bits": gen.size_bits(inst)}
    return Op(["check"], text, verify, n, facts, oracle)


KP1D = (
    Kind("solve_d1", 7, 50, 200, _solve),
    Kind("check", 3, 50, 200, _check),
)


# ---------------------------------------------------------------------------
# graphs


def _threshold_file(argv, certify, oracle_of=None):
    def make(rng, n):
        seq = gen.random_sequence(rng, n).relabel(gen.permutation(rng, n))
        adj = seq.adjacency()
        text = gen.graph_text(n, adj)

        def verify(code, out):
            check.require(code == 0, f"exit code {code}")
            certify(out, seq, adj)

        oracle = None
        if oracle_of:
            def oracle(out, O, Graph):
                oracle_of(out, O, _oracle_graph(Graph, adj))

        return Op(argv, text, verify, n, {"bytes": len(text)}, oracle)

    return make


def _enumerate_oracle(out, O, g):
    _agree(_set_list(check.parse_family(out)), sorted(O.brute_maximal_independent_sets(g)), "family")


def _graph_to_kp_oracle(out, O, g):
    ids, profits, (sizes,), (cap,) = check._instance(out, g.n, 1)
    inst = SimpleNamespace(
        items=[SimpleNamespace(id=i, size=s, profit=p) for i, s, p in zip(ids, sizes, profits)],
        capacity=cap,
    )
    _agree(O.brute_check_property_p(inst)[0], True, "graph-to-kp equivalence")


def _witness_file(argv, header, tags, draw, fixed=0):
    """Non-threshold or non-split graphs; a planted cycle keeps its `fixed`
    top labels when the labels are shuffled, so the witness scan still
    reaches it last."""

    def make(rng, n):
        adj = gen.relabel_adjacency(draw(rng, n), gen.permutation(rng, n, fixed))
        text = gen.graph_text(n, adj)

        def verify(code, out):
            check.require(code == 1, f"exit code {code}")
            check.check_witness(out, adj, header, tags)

        return Op(argv, text, verify, n, {"bytes": len(text)})

    return make


def _random_non_threshold(rng, n):
    return gen.random_graph(rng, n, lambda adj: not gen.is_threshold(adj))


def _random_non_split(rng, n):
    return gen.random_graph(rng, n, lambda adj: not gen.is_split(adj))


def _planted_c4(rng, n):
    return gen.planted_cycle(rng, n, 4)


def _planted_c5(rng, n):
    return gen.planted_cycle(rng, n, 5)


_THRESHOLD_TAGS = ("2K2", "P4", "C4")
_SPLIT_TAGS = ("2K2", "C4", "C5")
_W4 = ["recognize", "--witness"]
_W5 = ["recognize", "--split", "--witness"]

GRAPHS = (
    Kind("recognize", 2, 64, 384, _threshold_file(
        ["recognize"], lambda out, seq, adj: check.check_sequence(out, adj))),
    Kind("recognize_split", 2, 64, 384, _threshold_file(
        ["recognize", "--split"], lambda out, seq, adj: check.check_split(out, adj))),
    Kind("enumerate_mis", 2, 64, 384, _threshold_file(
        ["enumerate", "mis"], lambda out, seq, adj: check.check_family(out, seq.mis_masks()),
        _enumerate_oracle)),
    Kind("graph_to_kp", 2, 64, 384, _threshold_file(
        ["convert", "graph-to-kp"], lambda out, seq, adj: check.check_graph_to_kp(out, seq),
        _graph_to_kp_oracle)),
    Kind("witness_c4_random", 1, 20, 40, _witness_file(
        _W4, "not a threshold graph", _THRESHOLD_TAGS, _random_non_threshold)),
    Kind("witness_c4_planted", 1, 20, 40, _witness_file(
        _W4, "not a threshold graph", _THRESHOLD_TAGS, _planted_c4, 4)),
    Kind("witness_c5_random", 1, 16, 26, _witness_file(
        _W5, "not a split graph", _SPLIT_TAGS, _random_non_split)),
    Kind("witness_c5_planted", 1, 16, 26, _witness_file(
        _W5, "not a split graph", _SPLIT_TAGS, _planted_c5, 5)),
)


# ---------------------------------------------------------------------------
# multi


def _cover(k, family, argv):
    """Cover enumeration (`mis` or `mc`); `--count-only` prints the size."""

    def make(rng, n):
        perm = gen.permutation(rng, n)
        seqs = [gen.random_sequence(rng, n).relabel(perm) for _ in range(k)]
        text = gen.cover_text(seqs)
        reference = check.cover_mis if family == "mis" else check.cover_mc

        def verify(code, out):
            check.require(code == 0, f"exit code {code}")
            want = reference(seqs)
            if "--count-only" in argv:
                check.check_count(out, len(want))
            else:
                check.check_family(out, want)

        def oracle(out, O, Graph):
            # maximal cliques of the intersection are the maximal independent
            # sets of the union of the complements
            members = seqs if family == "mis" else [s.complement() for s in seqs]
            adj = check.union_adjacency(members)
            want = O.brute_maximal_independent_sets(_oracle_graph(Graph, adj))
            if "--count-only" in argv:
                _agree(int(out), len(want), "count")
            else:
                _agree(_set_list(check.parse_family(out)), sorted(want), "family")

        facts = {"bytes": len(text), "k": k}
        return Op(argv + [family], text, verify, n, facts, oracle)

    return make


def _bound(d, kind):
    def make(rng, n):
        seqs = [gen.random_sequence(rng, n) for _ in range(d)]
        inst = gen.equivalent_instance(rng, seqs).unit_view()
        perm = gen.permutation(rng, n)
        seqs = [s.relabel(perm) for s in seqs]
        inst = inst.relabel(perm)
        text = inst.text()

        def expected():
            if kind == "dvp":
                return check.max_clique(check.union_adjacency(seqs))
            return check.omega_intersection(seqs)

        def verify(code, out):
            check.require(code == 0, f"exit code {code}")
            check.check_count(out, expected())

        def oracle(out, O, Graph):
            if kind == "dvp":
                g = _oracle_graph(Graph, check.union_adjacency(seqs))
            else:
                g = _oracle_graph(Graph, check.intersection_adjacency(seqs))
            _agree(int(out), O.brute_omega(g), kind)

        facts = {"bytes": len(text), "size_bits": gen.size_bits(inst), "d": d}
        return Op(["bound", kind], text, verify, n, facts, oracle)

    return make


MULTI = (
    Kind("enumerate_mis_k2", 1, 70, 210, _cover(2, "mis", ["enumerate"])),
    Kind("enumerate_mc_k2", 1, 70, 210, _cover(2, "mc", ["enumerate"])),
    Kind("count_mis_k2", 1, 70, 210, _cover(2, "mis", ["enumerate", "--count-only"])),
    Kind("enumerate_mis_k3", 1, 36, 108, _cover(3, "mis", ["enumerate"])),
    Kind("enumerate_mc_k3", 1, 36, 108, _cover(3, "mc", ["enumerate"])),
    Kind("count_mc_k3", 1, 36, 108, _cover(3, "mc", ["enumerate", "--count-only"])),
    Kind("solve_d2", 1, 36, 108, lambda rng, n: _solve(rng, n, 2)),
    Kind("solve_d3", 1, 36, 108, lambda rng, n: _solve(rng, n, 3)),
    Kind("dvp_d2", 1, 36, 108, _bound(2, "dvp")),
    Kind("dvp_d3", 1, 36, 108, _bound(3, "dvp")),
    Kind("dbp_d2", 1, 36, 108, _bound(2, "dbp")),
    Kind("dbp_d3", 1, 36, 108, _bound(3, "dbp")),
)

WORKLOADS = {"kp1d": KP1D, "graphs": GRAPHS, "multi": MULTI}

# operations after which peak RSS is read: about half of what a 20-second
# run completes on the reference machine (2 cores, Python 3.11)
RSS_AFTER = {"kp1d": 150, "graphs": 200, "multi": 150}

# op_tail_s percentile: a 20-second run on the reference machine completes
# over 250 operations, so well over ten lie beyond it
TAIL_PERCENTILE = 90

# doubling sweeps (n, 2n, 4n) for the main layers, reported by traced runs
SWEEPS = {
    "kp1d": (("solve_d1", 100), ("check", 100)),
    "graphs": (
        ("recognize", 150), ("recognize_split", 150), ("enumerate_mis", 150),
        ("graph_to_kp", 150), ("witness_c4_planted", 12), ("witness_c5_planted", 8),
    ),
    "multi": (),
}
