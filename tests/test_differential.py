"""The sorted-sweep knapsack core against the reference paths it replaced
(`oracle.reference_*`): same verdicts, witnesses, conflict graphs, solutions
and refusals, on rows built to hit every tie and boundary the sweep has to
get right."""
import random
import sys
from fractions import Fraction
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import Graph, clique_number
from threshknap.knapsack import (
    BpInstance,
    DkpInstance,
    DkpItem,
    KpInstance,
    KpItem,
    NotEquivalentError,
    bp_lower_bound,
    check_equivalence_dkp,
    check_equivalence_kp,
    conflict_cover_dkp,
    conflict_graph_dkp,
    conflict_graph_kp,
    dbp_lower_bound,
    dvp_lower_bound,
    per_dimension_instances,
    solve_dkp_equivalent,
    solve_kp_equivalent,
)
from threshknap.kthreshold import omega_intersection
from threshknap.threshold import sequence_from_bits, threshold_to_kp

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
    if inst.n:
        cover = conflict_cover_dkp(inst)
        assert cover.member_graphs == oracle.reference_conflict_cover_dkp(inst).member_graphs


@given(dkp_instances())
@settings(max_examples=200, deadline=None)
def test_solve_dkp_matches_reference(inst):
    assert outcome(solve_dkp_equivalent, inst) == outcome(
        oracle.reference_solve_dkp_equivalent, inst
    )


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
        for sub in per_dimension_instances(unit)
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
