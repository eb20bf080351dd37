import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import (
    CapacityError,
    ContractError,
    Graph,
    is_clique,
    is_independent_set,
)
from threshknap.kthreshold import (
    CoverFormatError,
    ThresholdCover,
    alpha_k,
    cover_from_graphs,
    cover_from_sequences,
    enumerate_im_k,
    enumerate_is_k,
    enumerate_mc_intersection,
    enumerate_mis_2t,
    enumerate_mis_k,
    format_cover,
    omega_intersection,
    parse_cover,
    two_threshold_partition,
)
from threshknap import kthreshold
from threshknap.threshold import (
    SplitPartition,
    creation_sequence_to_graph,
    sequence_from_bits,
)


def random_cover(rng, max_n=9, max_k=3):
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_k)
    seqs = []
    for _ in range(k):
        bits = "1" + "".join(rng.choice("01") for _ in range(n - 1))
        vmap = list(range(1, n + 1))
        rng.shuffle(vmap)
        seqs.append(sequence_from_bits(bits, vmap=tuple(vmap)))
    return cover_from_sequences(seqs)


@st.composite
def covers(draw, max_n=9, max_k=3):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_cover(random.Random(seed), max_n=max_n, max_k=max_k)


HOUSE = cover_from_graphs(
    [
        Graph.from_edges(5, [(1, 2), (2, 3), (2, 4), (3, 4)]),
        Graph.from_edges(5, [(1, 5), (4, 5)]),
    ]
)
GEM = cover_from_graphs(
    [
        Graph.from_edges(5, [(1, 2), (2, 3), (2, 5), (1, 5)]),
        Graph.from_edges(5, [(3, 4), (3, 5), (4, 5)]),
    ]
)


def test_cover_construction_validation():
    with pytest.raises(ContractError):
        ThresholdCover(())
    with pytest.raises(ContractError):
        cover_from_sequences([sequence_from_bits("11"), sequence_from_bits("111")])


def test_cover_from_graphs_rejects_non_threshold_member():
    c4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError) as exc:
        cover_from_graphs([c4])
    assert "member 1" in str(exc.value)


def test_union_and_intersection_graphs():
    assert HOUSE.covered.edges == frozenset(
        {(1, 2), (2, 3), (2, 4), (3, 4), (1, 5), (4, 5)}
    )
    assert HOUSE.intersected.m == 0
    assert HOUSE.k == 2 and HOUSE.n == 5


@given(covers())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip(cover):
    assert parse_cover(format_cover(cover)) == cover


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty cover"),
        ("k 0\n", "member count"),
        ("k x\n", "member count"),
        ("1101\n", "k <count>"),
        ("k 2\n1101\n", "ends before member 2"),
        ("k 1\n0101\n", "member 1"),
        ("k 1\n1101\njunk\n", "trailing content"),
        ("k 1\np 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n", "not a threshold graph"),
        ("k 2\n111\n11\n", "share the vertex count"),
    ],
)
def test_parse_cover_errors(text, fragment):
    with pytest.raises(CoverFormatError) as exc:
        parse_cover(text)
    assert fragment in str(exc.value)


def test_parse_cover_accepts_graph_blocks():
    text = "k 2\np 5 4\ne 1 2\ne 2 3\ne 2 4\ne 3 4\np 5 2\ne 1 5\ne 4 5\n"
    assert parse_cover(text).covered == HOUSE.covered


def test_known_cover_families():
    assert enumerate_mis_k(HOUSE) == [(1, 3), (1, 4), (2, 5), (3, 5)]
    assert enumerate_mis_k(GEM) == [(5,), (1, 3), (1, 4), (2, 4)]
    assert enumerate_im_k(GEM) == [(1, 3), (1, 4), (2, 4)]
    assert alpha_k(GEM) == 2


@given(covers())
@settings(max_examples=150, deadline=None)
def test_enumerate_mis_k_matches_oracle(cover):
    assert enumerate_mis_k(cover) == oracle.brute_maximal_independent_sets(
        cover.covered
    )


@given(covers())
@settings(max_examples=100, deadline=None)
def test_results_form_an_antichain(cover):
    fam = enumerate_mis_k(cover)
    sets = [frozenset(s) for s in fam]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j:
                assert not a <= b


@given(covers())
@settings(max_examples=100, deadline=None)
def test_enumerate_im_k_matches_oracle(cover):
    fam = enumerate_im_k(cover)
    assert fam == oracle.brute_maximum_independent_sets(cover.covered)
    assert alpha_k(cover) == oracle.brute_alpha(cover.covered)


@given(covers(max_n=8))
@settings(max_examples=100, deadline=None)
def test_enumerate_is_k_matches_oracle(cover):
    fam = enumerate_is_k(cover)
    assert fam == oracle.brute_independent_sets(cover.covered)
    assert len(fam) == oracle.brute_count_independent_sets(cover.covered)


def test_is_k_guard():
    cover = cover_from_sequences([sequence_from_bits("1" * 21)])
    with pytest.raises(CapacityError):
        enumerate_is_k(cover)


@given(covers())
@settings(max_examples=100, deadline=None)
def test_mc_intersection_matches_oracle(cover):
    fam = enumerate_mc_intersection(cover)
    assert fam == oracle.brute_maximal_cliques(cover.intersected)
    assert omega_intersection(cover) == oracle.brute_omega(cover.intersected)


def test_two_threshold_partition_requires_two_members():
    with pytest.raises(ContractError):
        two_threshold_partition(cover_from_sequences([sequence_from_bits("11")]))


@pytest.mark.parametrize(
    "side,message",
    [("K", "not a clique"), ("S", "not independent")],
)
def test_two_threshold_partition_rejects_an_inconsistent_partition(
    monkeypatch, side, message
):
    # every vertex on one side: K is then no clique of the union (HOUSE has
    # non-edges) and S no independent set (it has edges)
    everyone = tuple(HOUSE.covered.vertices)
    bad = SplitPartition(everyone, ()) if side == "K" else SplitPartition((), everyone)
    monkeypatch.setattr(kthreshold, "split_partition", lambda cs, mode: bad)
    with pytest.raises(ContractError, match=message):
        two_threshold_partition(HOUSE)


def test_two_threshold_partition_blocks():
    p = two_threshold_partition(HOUSE)
    union = HOUSE.covered
    assert sorted(p.K + p.S + p.A + p.B) == list(union.vertices)
    for block in (p.K, p.A, p.B):
        assert is_clique(union, block)
    assert is_independent_set(union, p.S)


@given(covers(max_k=2))
@settings(max_examples=150, deadline=None)
def test_two_member_enumeration_agrees(cover):
    if cover.k != 2:
        cover = ThresholdCover(cover.members * 2)
    assert enumerate_mis_2t(cover) == enumerate_mis_k(cover)


def test_mis_2t_known_families():
    assert enumerate_mis_2t(HOUSE) == [(1, 3), (1, 4), (2, 5), (3, 5)]
    assert enumerate_mis_2t(GEM) == [(5,), (1, 3), (1, 4), (2, 4)]


def test_single_member_cover_reduces_to_threshold_families():
    from threshknap.threshold import enumerate_mis

    cs = sequence_from_bits("110101")
    cover = cover_from_sequences([cs])
    assert enumerate_mis_k(cover) == enumerate_mis(cs)
    g = creation_sequence_to_graph(cs)
    assert cover.covered == g and cover.intersected == g
