import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import Graph
from threshknap.knapsack import (
    BpInstance,
    DkpInstance,
    DkpItem,
    InstanceFormatError,
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
    format_instance,
    format_rational,
    format_report,
    format_solution,
    parse_instance,
    rational,
    solve_dkp_equivalent,
    solve_kp_equivalent,
)
from threshknap.threshold import (
    creation_sequence_to_graph,
    recognize_threshold,
    sequence_from_bits,
    threshold_to_kp,
)


def kp(sizes, cap, profits=None):
    profits = profits or [1] * len(sizes)
    items = tuple(
        KpItem(f"a{i + 1}", Fraction(p), Fraction(s))
        for i, (s, p) in enumerate(zip(sizes, profits))
    )
    return KpInstance(items, Fraction(cap))


def dkp(size_rows, caps, profits=None):
    n = len(size_rows[0])
    profits = profits or [1] * n
    items = tuple(
        DkpItem(f"a{i + 1}", Fraction(profits[i]), tuple(Fraction(r[i]) for r in size_rows))
        for i in range(n)
    )
    return DkpInstance(items, tuple(Fraction(c) for c in caps))


def random_kp(rng, max_n=8):
    n = rng.randint(1, max_n)
    q = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    sizes = [rng.randint(1, 30) * q for _ in range(n)]
    cap = rng.randint(5, 60) * q
    profits = [rng.randint(0, 20) for _ in range(n)]
    return kp(sizes, cap, profits)


# --- scalar parsing and printing ---------------------------------------------


def test_rational_accepts_exact_forms():
    assert rational("0.6") == Fraction(3, 5)
    assert rational("7/2") == Fraction(7, 2)
    assert rational("-3") == Fraction(-3)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


def test_rational_bounds_exponents_by_the_int_digit_limit():
    # Fraction writes 10**exponent out in full; these are refused before it
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert rational("1.5e3") == 1500
        assert rational("1e-4300") == Fraction(1, 10**4300)
        for text in ("1e4301", "1E-4_301", "1e999999999", "1e-999999999"):
            with pytest.raises(InstanceFormatError, match="exponent"):
                rational(text)
    finally:
        sys.set_int_max_str_digits(saved)


def test_rational_refuses_floats():
    # binary floats cannot state exact intent; the string form is required
    with pytest.raises(ValueError):
        rational(0.6)
    with pytest.raises(ValueError):
        rational(True)


def test_format_rational_prefers_decimal_when_exact():
    assert format_rational(Fraction(1, 2)) == "0.5"
    assert format_rational(Fraction(3, 40)) == "0.075"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-1, 4)) == "-0.25"


@given(st.fractions())
@settings(max_examples=200, deadline=None)
def test_format_rational_round_trips(q):
    assert rational(format_rational(q)) == q


# --- instance validation ------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        kp([-1], 5)
    with pytest.raises(ValueError):
        kp([1], -5)
    with pytest.raises(ValueError):
        KpInstance(
            (KpItem("a1", Fraction(1), Fraction(1)), KpItem("a1", Fraction(1), Fraction(2))),
            Fraction(5),
        )
    with pytest.raises(ValueError):
        kp([1, 2], 5, profits=[-1, 1])


def test_dkp_validation():
    with pytest.raises(ValueError):
        DkpInstance((DkpItem("a1", Fraction(1), ()),), ())
    with pytest.raises(ValueError):
        DkpInstance(
            (DkpItem("a1", Fraction(1), (Fraction(1),)),),
            (Fraction(1), Fraction(1)),
        )


def test_bp_validation():
    BpInstance((Fraction(1), Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"^sizes must lie in \(0, 1\], got 0$"):
        BpInstance((Fraction(0),))
    with pytest.raises(ValueError, match=r"^sizes must lie in \(0, 1\], got 3/2$"):
        BpInstance((Fraction(3, 2),))
    # checked before the item rules, which would name a negative size first
    with pytest.raises(ValueError, match=r"^sizes must lie in \(0, 1\], got -1/2$"):
        BpInstance((Fraction(1, 2), Fraction(-1, 2)))


# --- JSON round trips ---------------------------------------------------------


def test_parse_instance_singular_capacity():
    text = format_instance(kp([4, 2, 1, 7], 7))
    inst = parse_instance(text)
    assert isinstance(inst, KpInstance)
    assert inst.capacity == 7


def test_parse_instance_plural_capacities():
    inst = parse_instance(format_instance(dkp([[1, 2], [3, 4]], [5, 6])))
    assert isinstance(inst, DkpInstance)
    assert inst.capacities == (5, 6)
    # one-dimensional but plural stays multidimensional
    inst = parse_instance(format_instance(dkp([[1, 2]], [5])))
    assert isinstance(inst, DkpInstance)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "JSON"),
        ("[]", "object"),
        ('{"items": []}', "capacity"),
        ('{"capacity": "1", "capacities": ["1"], "items": []}', "exactly one"),
        ('{"capacity": "1"}', "items"),
        ('{"capacity": "1", "items": [{"id": "a", "profit": "1"}]}', "size"),
        (
            '{"capacity": "1", "items": [{"id": "a", "profit": "1", "sizes": ["1", "2"]}]}',
            "one size expected",
        ),
        ('{"capacity": "0.x", "items": []}', "0.x"),
    ],
)
def test_parse_instance_errors(text, fragment):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_instance_json_round_trip(seed):
    inst = random_kp(random.Random(seed))
    assert parse_instance(format_instance(inst)) == inst


def test_instance_is_its_integer_rows():
    text = (
        '{"capacity": "5/2", "items": [{"id": "a", "profit": "1/2", "size": "0.75"},'
        ' {"id": "b", "profit": "2", "size": "1"}]}'
    )
    inst = parse_instance(text)
    assert (inst.ids, inst.profits, inst.pscale) == (("a", "b"), (1, 4), 2)
    assert inst.rows == (((3, 4), 10, 4),)
    built = KpInstance(
        (KpItem("a", Fraction(1, 2), Fraction(3, 4)), KpItem("b", 2, 1)), Fraction(5, 2)
    )
    assert inst == built and hash(inst) == hash(built)
    assert inst.items == built.items == (
        KpItem("a", Fraction(1, 2), Fraction(3, 4)),
        KpItem("b", Fraction(2), Fraction(1)),
    )
    assert inst.capacity == Fraction(5, 2)
    # scales are canonical: 2/4 and 1/2 give the same rows
    assert parse_instance(text.replace('"1/2"', '"2/4"')) == inst
    assert parse_instance(text.replace('"5/2"', '"3"')) != inst

    plural = parse_instance(
        '{"capacities": ["1", "3/2"], "items": [{"id": "a", "profit": "0", "sizes": ["1/3", "1"]}]}'
    )
    assert plural.rows == (((1,), 3, 3), ((2,), 3, 2))
    assert plural.d == 2 and plural.n == 1
    assert plural.capacities == (1, Fraction(3, 2))
    assert plural.items == (DkpItem("a", Fraction(0), (Fraction(1, 3), Fraction(1))),)
    assert plural != KpInstance(plural.items[:0], 1)


# --- conflict graphs ----------------------------------------------------------


def test_conflict_graph_strict_inequality():
    g = conflict_graph_kp(kp([1, 1, 1, 1], 2))
    assert g.m == 0  # 1+1 == 2 fits exactly, no conflict
    g = conflict_graph_kp(kp([1, 1, 1, 1], 1))
    assert g.m == 6


def test_conflict_graph_known_instances():
    assert conflict_graph_kp(kp([12, 10, 11, 8, 9], 26)).m == 0
    claw = conflict_graph_kp(kp([4, 2, 1, 7], 7))
    assert claw.edges == frozenset({(1, 4), (2, 4), (3, 4)})


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_conflict_graph_is_always_threshold(seed):
    inst = random_kp(random.Random(seed))
    got = recognize_threshold(conflict_graph_kp(inst))
    assert not isinstance(got, Exception)
    assert creation_sequence_to_graph(got) == conflict_graph_kp(inst)


def test_dkp_conflict_union_and_cover():
    inst = dkp([[3, 1, 2, 4, 5], [5, 5, 5, 1, 1]], [5, 5])
    per = oracle.per_dimension_instances(inst)
    assert len(per) == 2
    assert all(isinstance(p, KpInstance) for p in per)
    union = conflict_graph_dkp(inst)
    assert union.m == 10  # K5
    cover = conflict_cover_dkp(inst)
    assert cover.covered == union
    for member, sub in zip(oracle.member_graphs(cover), per):
        assert member == conflict_graph_kp(sub)


# --- equivalence --------------------------------------------------------------


def test_check_equivalence_known_negative():
    rep = check_equivalence_kp(kp([12, 10, 11, 8, 9], 26))
    assert not rep.equivalent
    assert rep.witness == ("a1", "a2", "a3")
    assert rep.conflict_graph.m == 0


def test_check_equivalence_known_positives():
    assert check_equivalence_kp(kp([4, 2, 1, 7], 7)).equivalent
    rep = check_equivalence_dkp(dkp([[3, 1, 2, 4, 5], [5, 5, 5, 1, 1]], [5, 5]))
    assert rep.equivalent and rep.witness is None
    assert rep.conflict_graph.m == 10


def test_check_equivalence_dkp_negatives():
    rep = check_equivalence_dkp(dkp([[12, 10, 11, 8, 9], [2, 1, 2, 4, 5]], [26, 5]))
    assert not rep.equivalent and rep.witness == ("a1", "a2", "a3")
    rep = check_equivalence_dkp(
        dkp([[3, 1, 2, 5, 5, 5], [3, 1, 2, 3, 1, 2]], [5, 5])
    )
    assert not rep.equivalent


def test_one_body_per_job_for_any_number_of_rows():
    assert check_equivalence_dkp is check_equivalence_kp
    assert solve_dkp_equivalent is solve_kp_equivalent
    assert conflict_graph_dkp is conflict_graph_kp
    # each item alone overfills the second row, while the pair fits the
    # first: a walk of the first row only would choose both
    inst = dkp([[1, 1], [5, 5]], [2, 4])
    rep = check_equivalence_kp(inst)
    assert not rep.equivalent and rep.witness == ("a1",)
    with pytest.raises(NotEquivalentError):
        solve_kp_equivalent(inst)


def assert_minimal_violation(ids, inst):
    """A reported witness must overflow some dimension, be pairwise
    compatible, and lose the overflow when any one item is dropped."""
    by = {it.id: it for it in inst.items}
    rows = (
        [(inst.capacity, {i: by[i].size for i in by})]
        if isinstance(inst, KpInstance)
        else [
            (cap, {i: by[i].sizes[j] for i in by})
            for j, cap in enumerate(inst.capacities)
        ]
    )

    def overflowing(members):
        return any(sum(sz[i] for i in members) > cap for cap, sz in rows)

    assert overflowing(ids)
    for a in ids:
        for b in ids:
            if a < b:
                assert not overflowing((a, b))
        assert not overflowing(tuple(x for x in ids if x != a))


def test_witness_is_minimal_violation():
    rep = check_equivalence_kp(kp([12, 10, 11, 8, 9], 26))
    ids = rep.witness
    sizes = {f"a{i + 1}": s for i, s in enumerate([12, 10, 11, 8, 9])}
    total = sum(sizes[i] for i in ids)
    assert total > 26
    for drop in ids:
        assert total - sizes[drop] <= 26


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_check_equivalence_matches_oracle(seed):
    inst = random_kp(random.Random(seed))
    rep = check_equivalence_kp(inst)
    ok, _ = oracle.brute_check_property_p(inst)
    assert rep.equivalent == ok
    if not ok:
        assert_minimal_violation(rep.witness, inst)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_check_equivalence_dkp_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    d = rng.randint(1, 3)
    rows = [[rng.randint(1, 12) for _ in range(n)] for _ in range(d)]
    caps = [rng.randint(5, 25) for _ in range(d)]
    inst = dkp(rows, caps)
    rep = check_equivalence_dkp(inst)
    ok, _ = oracle.brute_check_property_pd(inst)
    assert rep.equivalent == ok
    if not ok:
        assert_minimal_violation(rep.witness, inst)


# --- solving ------------------------------------------------------------------


def test_solve_known_instance():
    sol = solve_kp_equivalent(kp([4, 2, 1, 7], 7, profits=[1, 1, 1, 10]))
    assert sol.chosen == ("a4",)
    assert sol.profit == 10
    assert sol.dimension_totals == (7,)


def test_solve_zero_profits_picks_empty():
    sol = solve_kp_equivalent(kp([4, 2, 1, 7], 7, profits=[0, 0, 0, 0]))
    assert sol.chosen == ()
    assert sol.profit == 0
    assert sol.dimension_totals == (0,)


def test_solve_raises_on_non_equivalent():
    with pytest.raises(NotEquivalentError) as exc:
        solve_kp_equivalent(kp([12, 10, 11, 8, 9], 26))
    assert exc.value.report.witness == ("a1", "a2", "a3")
    assert exc.value.dimension is None
    assert "a1, a2, a3" in str(exc.value)


def test_solve_dkp_known_instance():
    inst = dkp([[3, 1, 2, 4, 5], [5, 5, 5, 1, 1]], [5, 5], profits=[5, 4, 3, 2, 1])
    sol = solve_dkp_equivalent(inst)
    assert sol.chosen == ("a1",)
    assert sol.profit == 5
    assert sol.dimension_totals == (3, 5)


def test_solve_dkp_reduces_to_kp_in_one_dimension():
    inst = dkp([[4, 2, 1, 7]], [7], profits=[1, 1, 1, 10])
    sol = solve_dkp_equivalent(inst)
    assert sol.chosen == ("a4",) and sol.profit == 10


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_solver_profit_matches_oracle(seed):
    inst = random_kp(random.Random(seed))
    try:
        sol = solve_kp_equivalent(inst)
    except NotEquivalentError:
        return
    profit, _ = oracle.brute_solve_kp(inst)
    assert sol.profit == profit
    chosen = {it.id: it for it in inst.items}
    total = sum((chosen[c].size for c in sol.chosen), Fraction(0))
    assert total <= inst.capacity
    assert sol.dimension_totals == (total,)


def test_solution_deterministic():
    inst = kp([1, 1, 1], 3, profits=[1, 1, 1])
    assert solve_kp_equivalent(inst) == solve_kp_equivalent(inst)
    assert solve_kp_equivalent(inst).chosen == ("a1", "a2", "a3")


# --- packing bounds -----------------------------------------------------------


def test_bp_lower_bound_known():
    f = Fraction
    assert bp_lower_bound(BpInstance(tuple(f(6, 10) for _ in range(4)))) == 4
    assert bp_lower_bound(BpInstance((f(1, 2), f(1, 2)))) == 1
    assert bp_lower_bound(BpInstance(())) == 0
    # three halves fit pairwise but not together: no equivalent graph
    with pytest.raises(NotEquivalentError):
        bp_lower_bound(BpInstance((f(1, 2), f(1, 2), f(1, 2))))


def test_bp_lower_bound_requires_equivalence():
    f = Fraction
    sizes = tuple(f(s, 26) for s in (12, 10, 11, 8, 9))
    with pytest.raises(NotEquivalentError):
        bp_lower_bound(BpInstance(sizes))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_bp_lower_bound_below_opt(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    sizes = tuple(Fraction(rng.randint(1, 10), 10) for _ in range(n))
    try:
        lb = bp_lower_bound(BpInstance(sizes))
    except NotEquivalentError:
        return
    assert lb <= oracle.brute_bin_packing_opt(sizes, Fraction(1))


def test_dvp_lower_bound_known():
    f = Fraction
    a = [f(6, 10), f(6, 10), f(1, 10), f(1, 10)]
    b = [f(1, 10), f(1, 10), f(6, 10), f(6, 10)]
    inst = dkp([a, b], [1, 1])
    assert dvp_lower_bound(inst) == 2


def test_dvp_lower_bound_non_threshold_union():
    # per-dimension graphs are stars, the union is a 4-cycle
    f = Fraction
    dim1 = [f(2, 5), f(4, 5), f(2, 5), f(1, 5)]
    dim2 = [f(2, 5), f(1, 5), f(2, 5), f(4, 5)]
    inst = dkp([dim1, dim2], [1, 1])
    union = conflict_graph_dkp(inst)
    assert union.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    assert dvp_lower_bound(inst) == 2
    opt = oracle.brute_vector_packing_opt([it.sizes for it in inst.items], inst.capacities)
    assert dvp_lower_bound(inst) <= opt


def test_dvp_requires_unit_capacities():
    inst = dkp([[1, 1]], [2])
    with pytest.raises(ValueError):
        dvp_lower_bound(inst)
    oversized = dkp([[2, 1]], [1])
    with pytest.raises(ValueError):
        dvp_lower_bound(oversized)


def test_dvp_reports_failing_dimension():
    f = Fraction
    bad = [f(s, 26) for s in (12, 10, 11, 8, 9)]
    good = [f(1, 10)] * 5
    with pytest.raises(NotEquivalentError) as exc:
        dvp_lower_bound(dkp([good, bad], [1, 1]))
    assert exc.value.dimension == 2
    assert "dimension 2" in str(exc.value)


def test_dbp_lower_bound_known():
    f = Fraction
    inst = dkp([[f(6, 10)] * 3, [f(6, 10)] * 3], [1, 1])
    assert dbp_lower_bound(inst) == 3
    assert dbp_lower_bound(inst) == oracle.brute_dbp_opt([it.sizes for it in inst.items])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_dbp_lower_bound_below_opt(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    d = rng.randint(1, 3)
    rows = [[Fraction(rng.randint(1, 10), 10) for _ in range(n)] for _ in range(d)]
    inst = dkp(rows, [1] * d)
    try:
        lb = dbp_lower_bound(inst)
    except NotEquivalentError:
        return
    assert lb <= oracle.brute_dbp_opt([it.sizes for it in inst.items])


# --- report formatting --------------------------------------------------------


def test_format_report_and_solution_shapes():
    rep = check_equivalence_kp(kp([12, 10, 11, 8, 9], 26))
    text = format_report(rep)
    assert '"equivalent": false' in text
    assert '"witness"' in text and text.endswith("\n")
    sol = solve_kp_equivalent(kp([4, 2, 1, 7], 7, profits=[1, 1, 1, 10]))
    text = format_solution(sol)
    assert '"profit": "10"' in text
