from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import (
    CapacityError,
    Graph,
    complement,
    induced_subgraph,
    is_clique,
    is_independent_set,
)
from threshknap.threshold import (
    CreationSequence,
    RecognitionFailure,
    SequenceFormatError,
    alpha_omega,
    complement_sequence,
    count_im,
    count_is,
    count_mc,
    count_mis,
    creation_sequence_to_graph,
    enumerate_im,
    enumerate_is,
    enumerate_max_cliques,
    enumerate_mis,
    mis_masks,
    parse_sequence,
    recognize_threshold,
    sequence_from_bits,
    serialize_sequence,
    split_partition,
    threshold_to_kp,
)

bit_strings = st.integers(min_value=0, max_value=1).map(str)


@st.composite
def sequences(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    tail = "".join(draw(st.lists(bit_strings, min_size=n - 1, max_size=n - 1)))
    return sequence_from_bits("1" + tail, draw(st.permutations(range(1, n + 1))))


def all_sequences(n):
    for tail in range(1 << (n - 1)):
        yield sequence_from_bits("1" + format(tail, f"0{n - 1}b") if n > 1 else "1")


def test_sequence_validation():
    with pytest.raises(SequenceFormatError):
        sequence_from_bits("")
    with pytest.raises(SequenceFormatError):
        sequence_from_bits("0101")
    with pytest.raises(SequenceFormatError):
        sequence_from_bits("1x0")
    with pytest.raises(SequenceFormatError):
        sequence_from_bits("101", vmap=(1, 2))
    with pytest.raises(SequenceFormatError):
        sequence_from_bits("101", vmap=(1, 1, 2))


def test_sequence_defaults_identity_vmap():
    cs = sequence_from_bits("1101")
    assert cs.vmap == (1, 2, 3, 4)
    assert cs.n == 4
    assert cs.vertex(1) == 1


def test_known_graphs_from_sequences():
    assert creation_sequence_to_graph(sequence_from_bits("1000")).m == 0
    k4 = creation_sequence_to_graph(sequence_from_bits("1111"))
    assert k4.m == 6
    paw = creation_sequence_to_graph(sequence_from_bits("1101"))
    assert paw.edges == frozenset({(1, 2), (1, 4), (2, 4), (3, 4)})
    claw = creation_sequence_to_graph(sequence_from_bits("1001"))
    assert claw.edges == frozenset({(1, 4), (2, 4), (3, 4)})


def test_vmap_relabels_the_graph():
    cs = sequence_from_bits("1101", vmap=(4, 3, 2, 1))
    g = creation_sequence_to_graph(cs)
    assert g.edges == frozenset({(3, 4), (1, 4), (1, 3), (1, 2)})


@given(sequences())
@settings(max_examples=150, deadline=None)
def test_recognition_round_trip(cs):
    g = creation_sequence_to_graph(cs)
    got = recognize_threshold(g)
    assert isinstance(got, CreationSequence)
    assert creation_sequence_to_graph(got) == g


def test_recognition_of_empty_graph_rejected():
    with pytest.raises(ValueError):
        recognize_threshold(Graph(0, frozenset()))


@pytest.mark.parametrize(
    "edges,tag",
    [
        ([(1, 2), (3, 4)], "2K2"),
        ([(1, 2), (2, 3), (3, 4)], "P4"),
        ([(1, 2), (2, 3), (3, 4), (1, 4)], "C4"),
    ],
)
def test_recognition_failure_with_witness(edges, tag):
    g = Graph.from_edges(4, edges)
    got = recognize_threshold(g, want_witness=True)
    assert isinstance(got, RecognitionFailure)
    assert got.tag == tag
    assert len(got.witness) == 4
    assert induced_subgraph(g, got.witness).m == len(edges)


def test_recognition_failure_without_witness():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    got = recognize_threshold(g)
    assert isinstance(got, RecognitionFailure)
    assert got.witness is None


@given(sequences())
@settings(max_examples=100, deadline=None)
def test_complement_sequence_matches_graph_complement(cs):
    g = creation_sequence_to_graph(cs)
    h = creation_sequence_to_graph(complement_sequence(cs))
    assert h == complement(g)


@given(sequences(max_n=9))
@settings(max_examples=100, deadline=None)
def test_split_partition_validity(cs):
    g = creation_sequence_to_graph(cs)
    for mode in ("clique-max", "independent-max"):
        p = split_partition(cs, mode=mode)
        assert sorted(p.K + p.S) == list(g.vertices)
        assert is_clique(g, p.K)
        assert is_independent_set(g, p.S)
    a, w = alpha_omega(cs)
    assert len(split_partition(cs).K) == w
    assert len(split_partition(cs, mode="independent-max").S) == a


@given(sequences(max_n=9))
@settings(max_examples=100, deadline=None)
def test_alpha_omega_matches_oracle(cs):
    g = creation_sequence_to_graph(cs)
    a, w = alpha_omega(cs)
    assert a == oracle.brute_alpha(g)
    assert w == oracle.brute_omega(g)


@given(sequences(max_n=9))
@settings(max_examples=150, deadline=None)
def test_enumerate_mis_matches_oracle(cs):
    g = creation_sequence_to_graph(cs)
    fam = enumerate_mis(cs)
    assert fam == oracle.brute_maximal_independent_sets(g)
    masks = mis_masks(cs)
    assert count_mis(cs) == len(fam) == len(masks) == len(set(masks))


@given(sequences(max_n=9))
@settings(max_examples=150, deadline=None)
def test_enumerate_im_matches_oracle(cs):
    g = creation_sequence_to_graph(cs)
    fam = enumerate_im(cs)
    assert fam == oracle.brute_maximum_independent_sets(g)
    assert count_im(cs) == len(fam)


@given(sequences(max_n=9))
@settings(max_examples=150, deadline=None)
def test_enumerate_is_matches_oracle(cs):
    g = creation_sequence_to_graph(cs)
    fam = enumerate_is(cs)
    assert fam == oracle.brute_independent_sets(g)
    assert count_is(cs) == len(fam)


@given(sequences(max_n=9))
@settings(max_examples=150, deadline=None)
def test_enumerate_max_cliques_matches_oracle(cs):
    g = creation_sequence_to_graph(cs)
    fam = enumerate_max_cliques(cs)
    assert fam == oracle.brute_maximal_cliques(g)
    assert count_mc(cs) == len(fam)


def test_mis_count_is_number_of_one_bits():
    for n in range(1, 9):
        for cs in all_sequences(n):
            assert count_mis(cs) == cs.bits.count("1")


def test_im_count_is_leading_ones():
    # maximum independent sets = one choice among the leading 1-run,
    # except the all-ones sequence where the whole run counts
    assert count_im(sequence_from_bits("1101")) == 2
    assert count_im(sequence_from_bits("1111")) == 4
    assert count_im(sequence_from_bits("1000")) == 1
    assert count_im(sequence_from_bits("1")) == 1


def test_enumeration_guard():
    with pytest.raises(CapacityError):
        enumerate_is(sequence_from_bits("1" * 25))
    # counting stays closed-form and unguarded
    assert count_is(sequence_from_bits("1" * 200)) == 200


def test_threshold_to_kp_known_instance():
    inst = threshold_to_kp(sequence_from_bits("1001"))
    assert [(it.id, it.size) for it in inst.items] == [
        ("a1", 4),
        ("a2", 2),
        ("a3", 1),
        ("a4", 7),
    ]
    assert inst.capacity == 7
    assert all(it.profit == 1 for it in inst.items)


def test_threshold_to_kp_profits_align_with_vertices():
    inst = threshold_to_kp(sequence_from_bits("1001"), profits=(1, 2, 3, 10))
    assert {it.id: it.profit for it in inst.items} == {
        "a1": 1,
        "a2": 2,
        "a3": 3,
        "a4": 10,
    }
    with pytest.raises(ValueError):
        threshold_to_kp(sequence_from_bits("1001"), profits=(1, 2))
    with pytest.raises(ValueError):
        threshold_to_kp(sequence_from_bits("1001"), profits=(1, 2, 3, -1))


@given(sequences(max_n=10))
@settings(max_examples=100, deadline=None)
def test_threshold_to_kp_round_trip(cs):
    from threshknap.knapsack import conflict_graph_kp

    g = creation_sequence_to_graph(cs)
    inst = threshold_to_kp(cs)
    assert conflict_graph_kp(inst) == g
    # pair sizes exceed capacity exactly on edges
    sizes = {it.id: it.size for it in inst.items}
    for u in g.vertices:
        for v in range(u + 1, g.n + 1):
            conflicting = sizes[f"a{u}"] + sizes[f"a{v}"] > inst.capacity
            assert conflicting == g.has_edge(u, v)


def test_serialize_parse_round_trip():
    cs = sequence_from_bits("1101", vmap=(3, 1, 4, 2))
    assert parse_sequence(serialize_sequence(cs)) == cs
    assert parse_sequence("1101\n") == sequence_from_bits("1101")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no bit string"),
        ("12x\n", "bits"),
        ("1101\nv 1 2\n", "permutation"),
        ("1101\nv 1 2 3 4\nv 1 2 3 4\n", "line 3: duplicate map"),
        ("0101\n", "t1 must be 1"),
    ],
)
def test_parse_sequence_errors(text, fragment):
    with pytest.raises(SequenceFormatError) as exc:
        parse_sequence(text)
    assert fragment in str(exc.value).lower()
