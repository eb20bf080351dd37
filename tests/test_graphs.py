import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshknap import oracle
from threshknap.graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    GraphFormatError,
    ShapeMismatchError,
    VertexRangeError,
    adjacency_masks,
    canonical_family,
    clique_number,
    complement,
    format_graph,
    induced_subgraph,
    intersect_graphs,
    is_clique,
    is_independent_set,
    mask_of,
    maximal_cliques,
    parse_graph,
    set_of_mask,
    union_graphs,
)
from threshknap.split import recognize_split
from threshknap.threshold import recognize_threshold

PAW = Graph.from_edges(4, [(1, 2), (1, 4), (2, 4), (3, 4)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if draw(st.booleans()):
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_from_edges_normalizes_orientation():
    g = Graph.from_edges(3, [(2, 1), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(2, 2)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Graph.from_edges(3, [(1, 4)])


def test_degree_and_neighbors():
    assert PAW.degree(4) == 3
    assert PAW.degree(3) == 1
    assert PAW.neighbors(4) == (1, 2, 3)
    assert PAW.neighbors(3) == (4,)
    assert PAW.vertices == (1, 2, 3, 4)


@pytest.mark.parametrize("v", [0, -1, 5])
def test_degree_and_neighbors_reject_vertices_outside_range(v):
    # 0 and -1 once read the last vertex's row, 5 = n + 1 raised IndexError
    with pytest.raises(VertexRangeError):
        PAW.degree(v)
    with pytest.raises(VertexRangeError):
        PAW.neighbors(v)


def test_adjacency_masks_match_neighbors():
    masks = adjacency_masks(PAW)
    for v in PAW.vertices:
        assert set_of_mask(masks[v - 1]) == PAW.neighbors(v)
        assert all(PAW.has_edge(u, v) for u in PAW.neighbors(v))


@given(st.sets(st.integers(min_value=1, max_value=20)))
def test_mask_round_trip(s):
    assert set_of_mask(mask_of(s)) == tuple(sorted(s))


def test_canonical_family_sorts_dedups_drops_empty():
    fam = canonical_family([(3, 1), (2,), (1, 3), (), (1, 2, 3)])
    assert fam == [(2,), (1, 3), (1, 2, 3)]


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert g.m + complement(g).m == g.n * (g.n - 1) // 2


def test_union_and_intersection():
    a = Graph.from_edges(4, [(1, 2), (2, 3)])
    b = Graph.from_edges(4, [(2, 3), (3, 4)])
    assert union_graphs([a, b]).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert intersect_graphs([a, b]).edges == frozenset({(2, 3)})


def test_union_rejects_mismatched_sizes():
    with pytest.raises(ShapeMismatchError):
        union_graphs([Graph(3, frozenset()), Graph(4, frozenset())])


def test_induced_subgraph_relabels_sorted():
    g = induced_subgraph(PAW, {2, 3, 4})
    # 2,3,4 become 1,2,3; surviving edges {2,4},{3,4}
    assert g.n == 3
    assert g.edges == frozenset({(1, 3), (2, 3)})


def test_induced_subgraph_rejects_foreign_vertex():
    with pytest.raises(VertexRangeError):
        induced_subgraph(PAW, {1, 5})


def test_independent_set_and_clique_predicates():
    assert is_independent_set(PAW, {1, 3})
    assert not is_independent_set(PAW, {1, 2})
    assert is_clique(PAW, {1, 2, 4})
    assert not is_clique(PAW, {1, 3, 4})
    assert is_clique(PAW, set())


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_parse_format_round_trip(g):
    assert parse_graph(format_graph(g)) == g


def test_parse_graph_ignores_blanks_and_comments():
    text = "# a comment\n\np 3 1\n\ne 1 3\n# trailing\n"
    assert parse_graph(text) == Graph.from_edges(3, [(1, 3)])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2\np 3 1\n", "edge before header"),
        ("p 3 1\np 3 1\ne 1 2\n", "duplicate header"),
        ("p 3\ne 1 2\n", "header must be"),
        ("p 3 x\n", "non-integer"),
        ("p 3 1\ne 1 2 3\n", "edge must be"),
        ("p 3 1\ne 2 1\n", "1 <= u < v"),
        ("p 3 1\ne 1 4\n", "1 <= u < v"),
        ("p 3 2\ne 1 2\n", "promises 2 edges"),
        ("p 3 2\ne 1 2\ne 1 2\n", "duplicate edge"),
        ("p 3 1\nq 1 2\n", "unknown record"),
        ("", "missing"),
        # a huge header fails on the bad line, before any per-vertex list
        ("p 10000000000000 1\ne 1 2\nz\n", "line 3: unknown record"),
        ("p 10000000000000 2\ne 1 2\ne 1 2\n", "duplicate edge"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_graph_bounds_the_vertex_count():
    # refused before the n-entry mask list, or an edge's n-bit mask, exists
    assert parse_graph(f"p {MAX_VERTICES} 1\ne 1 {MAX_VERTICES}\n").n == MAX_VERTICES
    with pytest.raises(CapacityError, match="exceed the limit"):
        parse_graph("p 10000000000000 0\n")
    with pytest.raises(CapacityError, match="exceed the limit"):
        parse_graph(f"p {MAX_VERTICES + 1} 0\n")
    with pytest.raises(CapacityError, match="^line 2: "):
        parse_graph("p 10000000000000 1\ne 1 9999999999999\n")


def test_parse_graph_error_carries_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p 3 1\ne 9 9\n")
    assert "line 2" in str(exc.value)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_maximal_cliques_match_oracle(g):
    assert maximal_cliques(g) == oracle.brute_maximal_cliques(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_clique_number_matches_oracle(g):
    assert clique_number(g) == oracle.brute_omega(g)


def test_maximal_cliques_known_paw():
    assert maximal_cliques(PAW) == [(3, 4), (1, 2, 4)]
    assert clique_number(PAW) == 3


def test_graph_is_its_masks_and_builds_edges_on_read():
    g = parse_graph("p 4 3\ne 3 4\ne 1 4\ne 1 2\n")
    assert g.masks == (0b1010, 0b0001, 0b1000, 0b0101)
    assert "edges" not in vars(g)
    assert format_graph(g) == "p 4 3\ne 1 2\ne 1 4\ne 3 4\n"
    assert "edges" not in vars(g)
    assert g.edges == frozenset({(1, 2), (1, 4), (3, 4)})
    assert g == Graph(4, [(1, 2), (3, 4), (1, 4)]) and hash(g) == hash(Graph.from_edges(4, g.edges))


def test_library_keeps_no_reference_to_a_graph():
    g = parse_graph("p 5 4\ne 1 2\ne 1 3\ne 1 4\ne 2 3\n")
    recognize_threshold(g)
    recognize_split(g)
    maximal_cliques(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
