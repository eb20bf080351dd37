"""Fast paths against the reference paths they replaced (`oracle.reference_*`).

The sorted-sweep knapsack core: same verdicts, witnesses, conflict graphs,
solutions and refusals, on rows built to hit every tie and boundary the
sweep has to get right.  Recognition: same verdicts and creation sequences
as the peel that recounted every degree, and witnesses that induce the
forbidden subgraph they name, on threshold graphs with and without a
flipped pair, G(n, p), planted cycles and complements.  Covers: the
member-by-member intersections are the tuple product's, and the
per-candidate maximality test gives the families the pairwise subset
filter gave.  Bron-Kerbosch: the branch and bound finds the clique number
that brute force and the full walk find.
The mask walk: `bits`, `set_of_mask`, the edge walk and the printer give
the bit-shifting loops' vertices, edges and text.  Parsing: the
mask-filling parser gives the reference parser's Graph, or its exception
class and message, on valid and mutated files; the integer-row instance
parser gives the Fraction parser's instance and views, or its exception
class and message, and its numeral fast path gives `rational`'s value or
error on every string shape."""
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import (
    _cliques,
    Graph,
    _pairs,
    adjacency_masks,
    bits,
    canonical_family,
    clique_number,
    complement,
    format_graph,
    parse_graph,
    induced_subgraph,
    is_clique,
    is_independent_set,
    is_maximal_independent,
    mask_of,
    set_of_mask,
)
from threshknap.knapsack import (
    BpInstance,
    DkpInstance,
    DkpItem,
    InstanceFormatError,
    KpInstance,
    KpItem,
    NotEquivalentError,
    _numeral,
    bp_lower_bound,
    check_equivalence_dkp,
    check_equivalence_kp,
    conflict_cover_dkp,
    conflict_graph_dkp,
    conflict_graph_kp,
    dbp_lower_bound,
    dvp_lower_bound,
    parse_instance,
    rational,
    solve_dkp_equivalent,
    solve_kp_equivalent,
)
from threshknap import kthreshold
from threshknap.kthreshold import (
    cover_from_sequences,
    enumerate_mc_intersection,
    enumerate_mis_2t,
    enumerate_mis_k,
    omega_intersection,
)
from threshknap.split import recognize_split
from threshknap.threshold import (
    CreationSequence,
    RecognitionFailure,
    complement_sequence,
    creation_sequence_to_graph,
    mis_masks,
    recognize_threshold,
    sequence_from_bits,
    split_partition,
    threshold_to_kp,
)

# several denominators, so rows rescale by a nontrivial lcm
FRACTIONS = st.fractions(min_value=0, max_value=12, max_denominator=6)
PROFITS = st.one_of(
    st.sampled_from([0, 0, 1, 1, 2, Fraction(1, 2), Fraction(3, 2)]),  # ties
    st.fractions(min_value=0, max_value=10, max_denominator=4),
)
SHAPES = ("free", "zero", "capacity", "repeat", "complement", "third", "over")
THIRDS = (Fraction(2, 5), Fraction(3, 7), Fraction(4, 9), Fraction(1, 2))
UNIT_SIZES = st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10)


@st.composite
def rows(draw, n):
    """(sizes, capacity): zero sizes, sizes equal to the capacity, repeated
    sizes, pairs summing exactly to the capacity, sizes just above a third
    of it, and items larger than the capacity on their own."""
    cap = draw(FRACTIONS)
    # an oversized item is its own witness; most rows go without, so that
    # witnesses of several pairwise-compatible items come up
    shapes = SHAPES if draw(st.integers(0, 3)) == 0 else SHAPES[:-1]
    sizes = []
    for _ in range(n):
        shape = draw(st.sampled_from(shapes))
        if shape == "zero":
            s = Fraction(0)
        elif shape == "capacity":
            s = cap
        elif shape == "repeat" and sizes:
            s = draw(st.sampled_from(sizes))
        elif shape == "complement" and sizes:
            x = draw(st.sampled_from(sizes))
            s = cap - x if x <= cap else x
        elif shape == "third":  # any two fit, any three overfill
            s = cap * draw(st.sampled_from(THIRDS))
        elif shape == "over":
            s = cap + draw(st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7))
        else:
            s = draw(st.fractions(min_value=0, max_value=cap, max_denominator=7))
        sizes.append(s)
    return sizes, cap


@st.composite
def equivalent_rows(draw, n):
    """Rows whose conflict graph captures feasibility: a threshold
    sequence's knapsack, scaled by a rational and relabeled."""
    bits = "1" + "".join(draw(st.lists(st.sampled_from("01"), min_size=n - 1, max_size=n - 1)))
    vmap = draw(st.permutations(range(1, n + 1)))
    inst = threshold_to_kp(sequence_from_bits(bits, vmap))
    q = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    return [it.size * q for it in inst.items], inst.capacity * q


@st.composite
def kp_instances(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    row = draw(st.one_of(rows(n), equivalent_rows(n)) if n else rows(0))
    profits = draw(st.lists(PROFITS, min_size=n, max_size=n))
    return kp(*row, profits)


@st.composite
def dkp_instances(draw, max_n=9):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(0, max_n))
    row = rows(n) if n == 0 else st.one_of(rows(n), equivalent_rows(n))
    dims = [draw(row)]
    for _ in range(d - 1):
        # a rescaled copy keeps the union's independent sets large
        if draw(st.integers(0, 3)):
            q = draw(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5))
            dims.append(([s * q for s in dims[0][0]], dims[0][1] * q))
        else:
            dims.append(draw(row))
    profits = draw(st.lists(PROFITS, min_size=n, max_size=n))
    items = tuple(
        DkpItem(f"a{j + 1}", Fraction(profits[j]), tuple(sizes[j] for sizes, _ in dims))
        for j in range(n)
    )
    return DkpInstance(items, tuple(cap for _, cap in dims))


def kp(sizes, cap, profits=None):
    profits = profits or [1] * len(sizes)
    items = tuple(
        KpItem(f"a{j + 1}", Fraction(p), Fraction(s))
        for j, (s, p) in enumerate(zip(sizes, profits))
    )
    return KpInstance(items, Fraction(cap))


def report_fields(rep):
    return rep.equivalent, rep.witness, rep.conflict_graph


def outcome(solve, inst):
    try:
        return solve(inst)
    except NotEquivalentError as e:
        return "refused", report_fields(e.report), e.dimension


# --- one row --------------------------------------------------------------------


@given(kp_instances())
@settings(max_examples=250, deadline=None)
def test_check_kp_matches_reference(inst):
    got = check_equivalence_kp(inst)
    assert report_fields(got) == report_fields(oracle.reference_check_equivalence_kp(inst))
    assert conflict_graph_kp(inst) == oracle.reference_conflict_graph_kp(inst)


@given(kp_instances())
@settings(max_examples=250, deadline=None)
def test_solve_kp_matches_reference(inst):
    assert outcome(solve_kp_equivalent, inst) == outcome(
        oracle.reference_solve_kp_equivalent, inst
    )


def test_small_rows_match_reference():
    f = Fraction
    cases = [
        ([], 0),
        ([], 3),
        ([f(0)], 0),
        ([f(5)], 3),  # one item larger than the capacity
        ([f(3)], 3),
        ([f(1, 2), f(5, 2)], 3),  # a pair summing exactly to the capacity
        ([f(2, 3), f(2, 3), f(2, 3)], 1),
        ([f(0), f(0), f(7, 3)], f(7, 3)),
        ([f(1, 2), f(1, 3), f(1, 6), f(1, 2)], 1),
    ]
    for sizes, cap in cases:
        for profits in ([0] * len(sizes), [1] * len(sizes), list(range(len(sizes)))):
            inst = kp(sizes, cap, profits)
            assert report_fields(check_equivalence_kp(inst)) == report_fields(
                oracle.reference_check_equivalence_kp(inst)
            )
            assert outcome(solve_kp_equivalent, inst) == outcome(
                oracle.reference_solve_kp_equivalent, inst
            )


@given(st.lists(UNIT_SIZES, max_size=12))
@settings(max_examples=200, deadline=None)
def test_bp_bound_matches_reference_clique_number(sizes):
    inst = BpInstance(tuple(sizes))
    ref = oracle.reference_check_equivalence_kp(
        kp(sizes, 1, [1] * len(sizes))
    )
    if not ref.equivalent:
        assert outcome(bp_lower_bound, inst)[1] == report_fields(ref)
        return
    assert bp_lower_bound(inst) == clique_number(ref.conflict_graph)


# --- several rows ---------------------------------------------------------------


@given(dkp_instances())
@settings(max_examples=200, deadline=None)
def test_check_dkp_matches_reference(inst):
    got = check_equivalence_dkp(inst)
    assert report_fields(got) == report_fields(oracle.reference_check_equivalence_dkp(inst))
    assert conflict_graph_dkp(inst) == oracle.reference_conflict_graph_dkp(inst)
    # the one-row names answer for every row, not only the first
    assert report_fields(check_equivalence_kp(inst)) == report_fields(got)
    assert conflict_graph_kp(inst) == oracle.reference_conflict_graph_dkp(inst)
    if inst.n:
        cover = conflict_cover_dkp(inst)
        assert oracle.member_graphs(cover) == oracle.member_graphs(
            oracle.reference_conflict_cover_dkp(inst)
        )


@given(dkp_instances())
@settings(max_examples=200, deadline=None)
def test_solve_dkp_matches_reference(inst):
    want = outcome(oracle.reference_solve_dkp_equivalent, inst)
    assert outcome(solve_dkp_equivalent, inst) == want
    assert outcome(solve_kp_equivalent, inst) == want


def test_union_threshold_witness_comes_from_the_row_that_overfills_first():
    # row 1 (sizes 2, 2, 2, 0, capacity 4) first overfills on {a, b, c};
    # row 2 (sizes 1, 1, 1, 5, capacity 3) already on {d}.  The union is a
    # star at d, so it is threshold and is walked on its sequence.
    items = tuple(
        DkpItem(i, Fraction(1), (Fraction(s1), Fraction(s2)))
        for i, s1, s2 in zip("abcd", (2, 2, 2, 0), (1, 1, 1, 5))
    )
    inst = DkpInstance(items, (Fraction(4), Fraction(3)))
    rep = check_equivalence_kp(inst)
    assert rep.witness == ("d",)
    assert report_fields(rep) == report_fields(oracle.reference_check_equivalence_dkp(inst))
    assert outcome(solve_kp_equivalent, inst) == outcome(oracle.reference_solve_dkp_equivalent, inst)


@given(dkp_instances(max_n=6))
@settings(max_examples=200, deadline=None)
def test_packing_bounds_match_reference(inst):
    # the unit view of each row: sizes over capacity, clamped into [1/10, 1]
    def unit_size(s, cap):
        return min(max(s / cap if cap else Fraction(1), Fraction(1, 10)), Fraction(1))

    unit = DkpInstance(
        tuple(
            DkpItem(it.id, it.profit, tuple(map(unit_size, it.sizes, inst.capacities)))
            for it in inst.items
        ),
        tuple(Fraction(1) for _ in inst.capacities),
    )
    refs = [
        oracle.reference_check_equivalence_kp(sub)
        for sub in oracle.per_dimension_instances(unit)
    ]
    failing = [i for i, rep in enumerate(refs, start=1) if not rep.equivalent]
    for bound in (dvp_lower_bound, dbp_lower_bound):
        got = outcome(bound, unit)
        if not unit.n:
            assert got == 0
        elif failing:
            assert got == ("refused", report_fields(refs[failing[0] - 1]), failing[0])
        elif bound is dvp_lower_bound:
            assert got == clique_number(oracle.reference_conflict_graph_dkp(unit))
        else:
            assert got == omega_intersection(oracle.reference_conflict_cover_dkp(unit))


# --- threshold_to_kp ------------------------------------------------------------


def test_threshold_to_kp_matches_reference_on_every_short_sequence():
    for n in range(1, 11):
        for tail in product("01", repeat=n - 1):
            cs = sequence_from_bits("1" + "".join(tail))
            assert threshold_to_kp(cs) == oracle.reference_threshold_to_kp(cs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_threshold_to_kp_matches_reference_up_to_300(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 300)
    vmap = list(range(1, n + 1))
    rng.shuffle(vmap)
    cs = sequence_from_bits("1" + "".join(rng.choice("01") for _ in range(n - 1)), vmap)
    profits = [rng.randint(0, 5) for _ in range(n)]
    assert threshold_to_kp(cs, profits) == oracle.reference_threshold_to_kp(cs, profits)


# --- Bron-Kerbosch depth --------------------------------------------------------


def test_clique_number_beyond_recursion_limit():
    # a clique larger than the recursion limit; lowered so the graph stays small
    saved = sys.getrecursionlimit()
    depth = 0
    frame = sys._getframe()
    while frame:
        depth += 1
        frame = frame.f_back
    limit = depth + 100
    k = limit + 50
    g = Graph(k, frozenset(combinations(range(1, k + 1), 2)))
    sys.setrecursionlimit(limit)
    try:
        assert clique_number(g) == k
    finally:
        sys.setrecursionlimit(saved)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_largest_clique_walk_matches_brute_omega_up_to_12(seed):
    g = random_graph(seed, 12)
    assert clique_number(g) == oracle.brute_omega(g)
    listed = _cliques(g.masks, largest=True)
    sizes = [c.bit_count() for c in listed]
    assert sizes == sorted(set(sizes))  # each one beats the one before
    assert set(listed) <= set(_cliques(g.masks))
    assert (sizes[-1] if sizes else 0) == oracle.brute_omega(g)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_largest_clique_walk_matches_full_walk_on_unions_up_to_120(seed):
    adj = random_cover(seed, 120).union_masks
    every = _cliques(adj)
    listed = _cliques(adj, largest=True)
    assert set(listed) <= set(every)
    assert listed[-1].bit_count() == max(c.bit_count() for c in every)


# --- recognition ----------------------------------------------------------------

FORBIDDEN = {
    "2K2": Graph.from_edges(4, [(1, 2), (3, 4)]),
    "P4": Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    "C4": Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "C5": Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
}
THRESHOLD_TAGS = ("2K2", "P4", "C4")
SPLIT_TAGS = ("2K2", "C4", "C5")
# kind -> smallest n it is built for
GRAPH_KINDS = {"threshold": 1, "flip": 2, "gnp": 1, "c4": 5, "c5": 7}


def random_graph(seed, max_n):
    """A relabeled threshold graph, the same with one pair flipped, G(n, p)
    with p drawn from [0, 1], or a threshold (c4) or split (c5) graph plus a
    cycle on the top labels joined to its clique side; half of them are
    complemented."""
    rng = random.Random(seed)
    kind = rng.choice(sorted(GRAPH_KINDS))
    n = rng.randint(GRAPH_KINDS[kind], max(max_n, GRAPH_KINDS[kind]))
    edges = set()
    clique = ()
    if kind in ("threshold", "flip", "c4"):
        base = n - 4 if kind == "c4" else n
        vmap = list(range(1, base + 1))
        rng.shuffle(vmap)
        cs = sequence_from_bits("1" + "".join(rng.choice("01") for _ in range(base - 1)), vmap)
        edges = set(creation_sequence_to_graph(cs).edges)
        clique = split_partition(cs).K
    if kind == "flip":
        edges ^= {tuple(sorted(rng.sample(range(1, n + 1), 2)))}
    elif kind == "gnp":
        p = rng.random()
        edges = {e for e in combinations(range(1, n + 1), 2) if rng.random() < p}
    elif kind == "c5":
        labels = list(range(1, n - 4))
        rng.shuffle(labels)
        cut = rng.randint(1, len(labels) - 1)
        clique = labels[:cut]
        edges = {tuple(sorted(e)) for e in combinations(clique, 2)}
        edges |= {tuple(sorted((k, s))) for k in clique for s in labels[cut:] if rng.random() < 0.5}
    if kind in ("c4", "c5"):
        length = int(kind[1])
        ring = range(n - length + 1, n + 1)
        for i, u in enumerate(ring):
            edges.add(tuple(sorted((u, ring[(i + 1) % length]))))
            edges |= {(k, u) for k in clique}
    g = Graph.from_edges(n, edges)
    return complement(g) if rng.random() < 0.5 else g


def assert_witness(g, failure, tags):
    """The witness names distinct sorted vertices inducing its tag's shape."""
    assert failure.tag in tags
    assert list(failure.witness) == sorted(set(failure.witness))
    sub = induced_subgraph(g, failure.witness)
    assert oracle.brute_is_isomorphic(sub, FORBIDDEN[failure.tag])


def assert_threshold_matches_reference(g):
    got = recognize_threshold(g, want_witness=True)
    want = oracle.reference_recognize_threshold(g)
    if isinstance(want, CreationSequence):
        assert got == want
    else:
        assert isinstance(got, RecognitionFailure)
        assert_witness(g, got, THRESHOLD_TAGS)


def assert_split_matches_reference(g):
    got = recognize_split(g, want_witness=True)
    split = oracle.reference_split_witness(g) == (None, None)
    assert isinstance(got, RecognitionFailure) != split
    if not split:
        assert_witness(g, got, SPLIT_TAGS)


def test_recognition_matches_reference_on_every_graph_up_to_5_vertices():
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for chosen in product((False, True), repeat=len(pairs)):
            g = Graph(n, frozenset(e for e, on in zip(pairs, chosen) if on))
            assert_threshold_matches_reference(g)
            assert_split_matches_reference(g)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_recognize_threshold_matches_reference_up_to_200(seed):
    # the reference peel is polynomial; only its 4-subset witness scan is
    # not, and it is not run here
    assert_threshold_matches_reference(random_graph(seed, 200))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_threshold_witness_matches_reference_scan_up_to_30(seed):
    g = random_graph(seed, 30)
    got = recognize_threshold(g, want_witness=True)
    want = oracle.reference_recognize_threshold(g, want_witness=True)
    assert isinstance(got, RecognitionFailure) == isinstance(want, RecognitionFailure)
    if isinstance(got, RecognitionFailure):
        assert_witness(g, got, THRESHOLD_TAGS)
        assert_witness(g, want, THRESHOLD_TAGS)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_split_witness_matches_reference_scan_up_to_14(seed):
    assert_split_matches_reference(random_graph(seed, 14))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_split_recognition_up_to_200(seed):
    g = random_graph(seed, 200)
    got = recognize_split(g, want_witness=True)
    if isinstance(got, RecognitionFailure):
        assert_witness(g, got, SPLIT_TAGS)
    else:
        assert is_clique(g, got.K) and is_independent_set(g, got.S)


@pytest.mark.parametrize("length", range(4, 10))
def test_witnesses_on_cycles_and_their_complements(length):
    # cycles of length >= 6 give the split witness's 2K2 from four of the
    # cycle's positions; their complements hold its C4s
    cycle = Graph.from_edges(length, [(i, i % length + 1) for i in range(1, length + 1)])
    for g in (cycle, complement(cycle)):
        assert_threshold_matches_reference(g)
        got = recognize_split(g, want_witness=True)
        assert_witness(g, got, SPLIT_TAGS)


# --- the mask walk --------------------------------------------------------------


@st.composite
def masks(draw):
    """0 or 1, one high bit, or a sparse or dense mask, up to bit 5000.
    `bits` clears low bits of masks with k < 256 members and 16k < L + 128
    binary digits, and scans the digits of the others; the sparse draws,
    up to 300 members, fall on both sides."""
    kind = draw(st.sampled_from(("tiny", "single", "sparse", "dense")))
    if kind == "tiny":
        return draw(st.sampled_from((0, 1)))
    top = draw(st.integers(min_value=0, max_value=5000))
    if kind == "single":
        return 1 << top
    if kind == "sparse":
        return mask_of(draw(st.sets(st.integers(min_value=1, max_value=top + 1), max_size=300)))
    return random.Random(draw(st.integers(min_value=0, max_value=10**6))).getrandbits(top + 1)


@given(masks())
@settings(max_examples=300, deadline=None)
@example(0)
@example(1)
@example(1 << 5000)
@example((1 << 5001) - 1)
@example((1 << 32) | 511)  # k = 10, L = 33: cleared
@example((1 << 31) | 511)  # k = 10, L = 32: scanned
@example(sum(1 << 16 * i for i in range(255)))  # k = 255, L = 4065: cleared
@example(sum(1 << 16 * i for i in range(256)))  # k = 256, L = 4081: scanned
def test_bits_and_set_of_mask_match_reference(m):
    expected = oracle.reference_set_of_mask(m)
    assert tuple(bits(m)) == expected
    assert set_of_mask(m) == expected


@given(st.integers(min_value=0, max_value=10**6), masks())
@settings(max_examples=150, deadline=None)
def test_edge_walk_and_printer_match_reference(seed, m):
    # a random graph, and stars between the vertices of m and the first or
    # the last vertex: one long row, or many long rows of one edge each
    members = oracle.reference_set_of_mask(m)
    n = max(m.bit_length(), 1)
    first = Graph(n, [(1, v) for v in members if v > 1])
    last = Graph(n, [(v, n) for v in members if v < n])
    for g in (random_graph(seed, 60), first, last):
        pairs = list(oracle.reference_pairs(g.masks))
        assert list(_pairs(g.masks)) == pairs
        assert g.edges == frozenset(pairs)
        assert format_graph(g) == "".join(
            [f"p {g.n} {len(pairs)}\n", *(f"e {u} {v}\n" for u, v in pairs)]
        )


# --- cover enumeration ----------------------------------------------------------


def random_cover(seed, max_n):
    """k in {2, 3, 4} relabelled sequences on n vertices, each with its own
    1-bit density: n <= max_n, or n <= max_n // 4 for four members, where
    the reference's tuple product would otherwise run to millions."""
    rng = random.Random(seed)
    k = rng.choice((2, 3, 4))
    n = rng.randint(1, max_n if k < 4 else max(max_n // 4, 1))
    seqs = []
    for _ in range(k):
        p = rng.random()
        vmap = list(range(1, n + 1))
        rng.shuffle(vmap)
        bits = "1" + "".join("1" if rng.random() < p else "0" for _ in range(n - 1))
        seqs.append(sequence_from_bits(bits, vmap))
    return cover_from_sequences(seqs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_cover_families_match_reference_up_to_120(seed):
    cover = random_cover(seed, 120)
    assert enumerate_mis_k(cover) == oracle.reference_enumerate_mis_k(cover)
    assert enumerate_mc_intersection(cover) == oracle.reference_enumerate_mc_intersection(cover)
    if cover.k == 2:  # the paper's four-class algorithm gives the same family
        assert enumerate_mis_2t(cover) == enumerate_mis_k(cover)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_member_by_member_intersections_keep_the_maximal_and_maximum_sets(seed):
    cover = random_cover(seed, 60)
    complements = [complement_sequence(cs) for cs in cover.members]
    for members in (cover.members, complements):
        families = [mis_masks(cs) for cs in members]
        got = kthreshold._intersections(families)
        reference = oracle.reference_intersections(families)
        assert got <= reference
        assert set(oracle._drop_subsets(reference)) <= got  # the maximal sets
        alpha = max(m.bit_count() for m in reference)
        union = cover_from_sequences(members)
        assert kthreshold.alpha_k(union) == alpha
        assert kthreshold.enumerate_im_k(union) == canonical_family(
            oracle.reference_set_of_mask(m) for m in reference if m.bit_count() == alpha
        )


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_maximality_test_matches_oracle_on_every_subset_up_to_8(seed):
    g = random_graph(seed, 8)
    adj = adjacency_masks(g)
    maximal = set(oracle._maximal_independent_masks(g))
    for m in range(1 << g.n):
        assert is_maximal_independent(adj, m) == (m in maximal)


# --- graph parsing --------------------------------------------------------------


MUTATIONS = (
    "duplicate",  # repeat an edge line and count it in the header
    "duplicate_uncounted",  # repeat an edge line, header unchanged
    "out_of_range",
    "edge_before_header",
    "bad_header",
    "repeated_header",
    "comments",
)


@st.composite
def graph_files(draw):
    """A valid graph file, then up to three mutations applied in turn."""
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = draw(st.permutations(edges))
    m = len(edges)
    lines = [f"e {u} {v}" for u, v in edges]
    header = f"p {n} {m}"
    at = st.integers(min_value=0, max_value=len(lines) + 3)
    late_header = False
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        edge_lines = [line for line in lines if line.startswith("e ")]
        if mutation.startswith("duplicate") and edge_lines:
            lines.insert(draw(at), draw(st.sampled_from(edge_lines)))
            if mutation == "duplicate":
                m += 1
                header = f"p {n} {m}"
        elif mutation == "out_of_range":
            end = st.integers(min_value=-1, max_value=n + 2)
            lines.insert(draw(at), f"e {draw(end)} {draw(end)}")
        elif mutation == "edge_before_header":
            late_header = True
        elif mutation == "bad_header":
            header = draw(st.sampled_from([
                "p", f"p {n}", f"p {n} x", f"p -1 {m}", f"p {n} -1", f"p {n} {m} 0", f"p {n + 1} {m}",
            ]))
        elif mutation == "repeated_header":
            lines.insert(draw(at), header)
        elif mutation == "comments":
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                lines.insert(draw(at), draw(st.sampled_from(["", "  ", "# note", "   # e 1 2"])))
    position = 0
    if late_header and lines:
        position = draw(st.integers(min_value=1, max_value=len(lines)))
    lines.insert(position, header)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def parsed(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e)


@given(graph_files())
@settings(max_examples=400, deadline=None)
def test_parse_graph_matches_reference(text):
    assert parsed(parse_graph, text) == parsed(oracle.reference_parse_graph, text)


# --- instance numbers and files ---------------------------------------------

DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=8)
NUMERAL_SHAPES = st.sampled_from([
    "1.", ".5", "5/0", "0/0", "3/-2", "2/4", "00/07", "\u0663", "1\u0663", "1_000", "1__0",
    "_1", " 7 ", "\t7/2\n", "-0", "+3", "-3/4", "1e3", "1E-2", "1e999999999", "1.5e3",
    "/2", "2/", "1/2/3", "", " ", "0x10", "\u00b2", "1/\u0663",
])


@st.composite
def numerals(draw):
    """Strings in and around the fast path's `a` and `a/b` forms: signs,
    leading zeros, `_` separators, whitespace, decimals, exponents (some
    beyond the digit limit), non-ASCII digits and zero denominators."""
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(DIGITS)
    if kind == 1:
        return f"{draw(DIGITS)}/{draw(DIGITS)}"
    if kind == 2:
        return draw(NUMERAL_SHAPES)
    if kind == 3:
        return draw(st.text(alphabet="0123456789/+-._eE \u0663", max_size=10))
    sign = draw(st.sampled_from(["", "+", "-"]))
    body = "_".join(draw(st.lists(DIGITS, min_size=1, max_size=3)))
    tail = draw(st.sampled_from(["", ".", ".25", f"/{draw(DIGITS)}", "e7", "e-2", "E+1", "e700"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\n "]))
    return f"{pad}{sign}{body}{tail}{pad}"


def by_rational(value):
    q = rational(value)
    return q.numerator, q.denominator


def numeral_outcome(convert, value):
    try:
        return convert(value)
    except InstanceFormatError as e:
        return "error", str(e)


@given(st.one_of(
    numerals(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([True, False, 0.5, None, [], {}]),
    st.integers(min_value=600, max_value=700).map(lambda k: "7" * k),
    st.integers(min_value=600, max_value=700).map(lambda k: "3/" + "1" * k),
))
@settings(max_examples=1500, deadline=None)
def test_numeral_matches_rational(value):
    # the lowest digit limit Python allows, so strings beyond it stay short
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        want = numeral_outcome(by_rational, value)
        assert numeral_outcome(_numeral, value) == want
    finally:
        sys.set_int_max_str_digits(saved)


INSTANCE_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.builds("{}/{}".format, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12)),
    st.sampled_from(["0.5", "1.25", "3", "1e1", "07", 2, 0]),
)
BAD_NUMBERS = st.sampled_from([
    "-1", "-1/2", "x", "", "1/0", "3/-2", 1.5, True, None, [], {}, -3, "1e999999999",
])
INSTANCE_MUTATIONS = (
    "bad_number", "negative", "faults", "drop_key", "extra_key", "empty_id", "duplicate_id",
    "id_type", "entry_type", "size_sizes", "sizes_count", "capacity_form", "items_type",
    "top_type",
)


@st.composite
def instance_texts(draw):
    """A valid one- or several-row instance, then up to three mutations:
    wrong value types, missing or extra keys, negative values, empty and
    duplicate ids, size/sizes and capacity/capacities mixups, and a
    negative capacity together with an item fault."""
    d = draw(st.integers(min_value=0, max_value=3))  # 0: the singular form
    n = draw(st.integers(min_value=0, max_value=6))
    items = []
    for j in range(n):
        entry = {"id": f"a{j + 1}", "profit": draw(INSTANCE_NUMBERS)}
        if d:
            entry["sizes"] = [draw(INSTANCE_NUMBERS) for _ in range(d)]
        else:
            entry["size"] = draw(INSTANCE_NUMBERS)
        items.append(entry)
    obj = {"items": items}
    if d:
        obj["capacities"] = [draw(INSTANCE_NUMBERS) for _ in range(d)]
    else:
        obj["capacity"] = draw(INSTANCE_NUMBERS)
    keys = ("id", "profit", "size", "sizes")
    mutations = draw(st.lists(st.sampled_from(INSTANCE_MUTATIONS), max_size=3))
    for mutation in sorted(mutations, key=lambda m: m == "top_type"):
        entries = [e for e in items if isinstance(e, dict)]
        entry = draw(st.sampled_from(entries)) if entries else {}
        if mutation == "bad_number":
            key = draw(st.sampled_from(["profit", "size", "capacity"]))
            (obj if key == "capacity" else entry)[key] = draw(BAD_NUMBERS)
        elif mutation == "negative":
            value = draw(st.sampled_from(["-1", "-0", "-2/3", -1]))
            where = draw(st.sampled_from(["profit", "size", "capacity"]))
            caps, sizes = obj.get("capacities"), entry.get("sizes")
            if where == "capacity":
                if isinstance(caps, list) and caps:
                    caps[-1] = value
                else:
                    obj["capacity"] = value
            elif where == "size" and isinstance(sizes, list) and sizes:
                sizes[-1] = value
            else:
                entry["size" if "size" in entry else "profit"] = value
        elif mutation == "faults":  # a negative capacity and an item fault at once
            obj["capacity" if "capacity" in obj else "capacities"] = draw(st.sampled_from(["-1", ["-1"]]))
            fault = draw(st.sampled_from(["id", "profit", "count"]))
            if fault == "id":
                entry["id"] = ""
            elif fault == "profit":
                entry["profit"] = "-1"
            else:
                entry["sizes"] = ["1", "2"]
                entry.pop("size", None)
        elif mutation == "drop_key":
            target = draw(st.sampled_from([obj, entry]))
            target.pop(draw(st.sampled_from(("items", "capacity", "capacities", *keys))), None)
        elif mutation == "extra_key":
            entry[draw(st.sampled_from(["note", "size", "sizes"]))] = draw(INSTANCE_NUMBERS)
        elif mutation == "empty_id":
            entry["id"] = ""
        elif mutation == "duplicate_id" and entries:
            items.append(dict(draw(st.sampled_from(entries))))
        elif mutation == "id_type":
            entry["id"] = draw(st.sampled_from([3, None, ["a"]]))
        elif mutation == "entry_type" and items:
            items[draw(st.integers(min_value=0, max_value=len(items) - 1))] = draw(st.sampled_from([1, "a1", None, []]))
        elif mutation == "size_sizes":
            entry.pop("size", None)
            entry["sizes"] = draw(st.sampled_from([[], ["1"], ["1", "2"], "1", ["1", "-1"]]))
        elif mutation == "sizes_count" and isinstance(entry.get("sizes"), list):
            entry["sizes"] = entry["sizes"] + ["1"]
        elif mutation == "capacity_form":
            obj[draw(st.sampled_from(["capacity", "capacities"]))] = draw(st.sampled_from(
                ["1", ["1"], ["1", "2"], [], "x", ["-1"], ["1", "-1/2"], [None]]))
        elif mutation == "items_type":
            obj["items"] = draw(st.sampled_from([{}, "x", 3, None]))
        elif mutation == "top_type":
            obj = draw(st.sampled_from([[obj], "x", 3, None]))
    return json.dumps(obj)


def parsed_instance(parse, text):
    try:
        inst = parse(text)
    except ValueError as e:
        return type(e), str(e)
    views = (inst.capacity,) if isinstance(inst, KpInstance) else (inst.capacities,)
    return type(inst), inst, hash(inst), inst.items, views


def lcm_scaled(values):
    """The Fractions times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(Fraction(q).denominator for q in values))
    return tuple(int(q * scale) for q in values), scale


# files with two faults that `parse_instance` reports in a fixed order,
# one pair of neighbouring checks each; random mutations rarely combine them
TWO_FAULTS = [
    # an item fault before the capacity, one row and several
    {"capacity": "-1", "items": [{"id": "", "profit": "1", "size": "1"}]},
    {"capacities": ["-1"], "items": [{"id": "a", "profit": "-1", "sizes": ["1"]}]},
    # one row: a size count before the capacity
    {"capacity": "-1", "items": [{"id": "a", "profit": "1", "sizes": ["1", "2"]}]},
    # the capacities' signs before the size counts
    {"capacities": ["-1"], "items": [{"id": "a", "profit": "1", "sizes": ["1", "2"]}]},
    # the size counts before the ids' uniqueness
    {"capacities": ["1", "1"], "items": [
        {"id": "a", "profit": "1", "sizes": ["1", "1"]},
        {"id": "a", "profit": "1", "sizes": ["1"]},
    ]},
    # the capacity before the ids' uniqueness
    {"capacity": "-1", "items": [
        {"id": "a", "profit": "1", "size": "1"}, {"id": "a", "profit": "1", "size": "1"},
    ]},
    # an item's signs before the ids' uniqueness
    {"capacity": "1", "items": [
        {"id": "a", "profit": "1", "size": "1"}, {"id": "a", "profit": "1", "size": "-1"},
    ]},
]


def explicit_examples(texts):
    """Run a hypothesis test on each of `texts` as well."""
    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test
    return apply


@given(instance_texts())
@settings(max_examples=600, deadline=None)
@explicit_examples([json.dumps(obj) for obj in TWO_FAULTS])
def test_parse_instance_matches_reference(text):
    got = parsed_instance(parse_instance, text)
    assert got == parsed_instance(oracle.reference_parse_instance, text)
    if len(got) == 2:  # refused by both, with the same message
        return
    # the views and rows against the reference's own items and capacities,
    # scaled here, so no row code is on both sides
    inst = parse_instance(text)
    _, items, caps = oracle.reference_parse_values(text)
    assert inst.items == items
    assert ((inst.capacity,) if isinstance(inst, KpInstance) else inst.capacities) == caps
    assert inst.ids == tuple(it.id for it in items)
    assert (inst.profits, inst.pscale) == lcm_scaled([it.profit for it in items])
    sizes = [(it.size,) if isinstance(inst, KpInstance) else it.sizes for it in items]
    want_rows = []
    for i, cap in enumerate(caps):
        ints, scale = lcm_scaled([*(s[i] for s in sizes), cap])
        want_rows.append((ints[:-1], ints[-1], scale))
    assert inst.rows == tuple(want_rows)
