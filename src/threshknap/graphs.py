"""Undirected simple graphs on vertices 1..n and the set machinery shared by
the rest of the library.

Vertices are 1-indexed integers.  Vertex sets travel as sorted tuples, set
families as lists of such tuples in canonical order (cardinality first, then
lexicographic).  Adjacency is kept as one Python int bitmask per vertex (bit
v-1 stands for vertex v), which covers any n without a word-size split.
The empty set is excluded from every family the library returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations


class GraphFormatError(ValueError):
    """Raised on malformed graph text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VertexRangeError(ValueError):
    """A vertex index fell outside 1..n."""


class ShapeMismatchError(ValueError):
    """Graphs that must share a vertex count do not."""


class CapacityError(ValueError):
    """Input exceeds a guard bound meant to keep brute-force work finite."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph: vertex count plus normalized edges."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise GraphFormatError(f"edge {e} invalid for n={self.n}")

    @staticmethod
    def from_edges(n, edge_list):
        norm = set()
        for u, v in edge_list:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexRangeError(f"edge ({u},{v}) outside 1..{n}")
            norm.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(norm))

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, u, v):
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degree(self, v):
        return adjacency_masks(self)[v - 1].bit_count()

    def neighbors(self, v):
        return set_of_mask(adjacency_masks(self)[v - 1])

    @property
    def vertices(self):
        return tuple(range(1, self.n + 1))


@lru_cache(maxsize=4096)
def adjacency_masks(g):
    """Per-vertex neighbor bitmasks; masks[v-1] has bit u-1 set iff {u,v} edge."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return tuple(masks)


def graph_from_masks(masks):
    """The Graph with adjacency masks `masks` (masks[v-1] for vertex v): the
    one conversion from masks to an edge set."""
    edges = []
    for u, m in enumerate(masks, start=1):
        m >>= u  # bit k now stands for vertex u + 1 + k
        while m:
            low = m & -m
            edges.append((u, u + low.bit_length()))
            m ^= low
    return Graph(len(masks), frozenset(edges))


def is_maximal_independent(adj, m):
    """Is the vertex mask m a maximal independent set of the graph with
    adjacency masks adj?  One pass over the members of m: their
    neighborhoods must miss m and, together with m, hold every vertex."""
    seen = 0
    rest = m
    while rest:
        low = rest & -rest
        seen |= adj[low.bit_length() - 1]
        rest ^= low
    return seen & m == 0 and seen | m == (1 << len(adj)) - 1


def mask_of(s):
    m = 0
    for v in s:
        m |= 1 << (v - 1)
    return m


def set_of_mask(m):
    out = []
    v = 1
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


def _check_set(g, s):
    for v in s:
        if not (1 <= v <= g.n):
            raise VertexRangeError(f"vertex {v} outside 1..{g.n}")


def canonical_family(sets):
    """Deduplicate and sort a collection of vertex sets canonically."""
    uniq = {tuple(sorted(s)) for s in sets}
    uniq.discard(())
    return sorted(uniq, key=lambda t: (len(t), t))


def family_equal(f1, f2):
    return canonical_family(f1) == canonical_family(f2)


def complement(g):
    comp = {(u, v) for u, v in combinations(range(1, g.n + 1), 2)} - set(g.edges)
    return Graph(g.n, frozenset(comp))


def is_independent_set(g, s):
    _check_set(g, s)
    m = mask_of(s)
    adj = adjacency_masks(g)
    return all(adj[v - 1] & m == 0 for v in s)


def is_clique(g, s):
    _check_set(g, s)
    m = mask_of(s)
    adj = adjacency_masks(g)
    # every member must see all the others
    return all(adj[v - 1] & m == m & ~(1 << (v - 1)) for v in s)


def neighborhood(g, v, s):
    """N(v,S): members of s adjacent to v."""
    if not (1 <= v <= g.n):
        raise VertexRangeError(f"vertex {v} outside 1..{g.n}")
    _check_set(g, s)
    return set_of_mask(adjacency_masks(g)[v - 1] & mask_of(s))


def non_neighborhood(g, v, s):
    """N̄(v,S) = S - (N(v,S) ∪ {v})."""
    if not (1 <= v <= g.n):
        raise VertexRangeError(f"vertex {v} outside 1..{g.n}")
    _check_set(g, s)
    m = mask_of(s) & ~adjacency_masks(g)[v - 1] & ~(1 << (v - 1))
    return set_of_mask(m)


def _shared_n(gs):
    gs = list(gs)
    if not gs:
        raise ShapeMismatchError("need at least one graph")
    n = gs[0].n
    for g in gs[1:]:
        if g.n != n:
            raise ShapeMismatchError(f"vertex counts differ: {g.n} vs {n}")
    return n, gs


def union_graphs(gs):
    n, gs = _shared_n(gs)
    edges = frozenset().union(*(g.edges for g in gs))
    return Graph(n, edges)


def intersect_graphs(gs):
    n, gs = _shared_n(gs)
    edges = set(gs[0].edges)
    for g in gs[1:]:
        edges &= g.edges
    return Graph(n, frozenset(edges))


def induced_subgraph(g, s):
    """Subgraph on s with vertices relabeled 1..|s| in sorted order."""
    _check_set(g, s)
    verts = sorted(set(s))
    index = {v: i + 1 for i, v in enumerate(verts)}
    edges = {(index[u], index[v]) for u, v in g.edges if u in index and v in index}
    return Graph(len(verts), frozenset(edges))


def content_lines(text):
    """(line number, stripped line) for each line of the text formats that
    is neither blank nor a `#` comment; numbering counts every line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph(text):
    """Parse the text graph format: `p <n> <m>` then m lines `e <u> <v>`, u < v.

    Blank lines and lines starting with '#' are ignored.
    """
    n = None
    m = None
    edges = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("header must be `p <n> <m>`", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative header fields", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge must be `e <u> <v>`", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer edge endpoints", lineno) from None
            if not (1 <= u < v <= n):
                raise GraphFormatError(
                    f"edge endpoints must satisfy 1 <= u < v <= {n}, got {u} {v}", lineno
                )
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown record `{parts[0]}`", lineno)
    if n is None:
        raise GraphFormatError("missing `p <n> <m>` header")
    if m != len(edges):
        raise GraphFormatError(f"header promises {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge lines")
    return Graph(n, frozenset(edges))


def format_graph(g):
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _cliques(adj):
    """Masks of the maximal cliques of the graph with adjacency masks adj,
    by Bron-Kerbosch with pivoting.  The recursion runs on an explicit
    stack, so clique size is not bounded by the interpreter's recursion
    limit."""
    out = []

    def pivot_candidates(p, x):
        # pivot: vertex of p|x with most neighbors inside p
        pux = p | x
        best, best_cnt = -1, -1
        m = pux
        while m:
            low = m & -m
            v = low.bit_length() - 1
            cnt = (adj[v] & p).bit_count()
            if cnt > best_cnt:
                best, best_cnt = v, cnt
            m ^= low
        return p & ~adj[best]

    # frames [r, p, x, candidates left]; a child call takes the lowest
    # candidate, after which the parent moves it from p to x
    stack = []
    if adj:
        full = (1 << len(adj)) - 1
        stack.append([0, full, 0, pivot_candidates(full, 0)])
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        frame[1], frame[2], frame[3] = p ^ low, x | low, cand ^ low
        cr, cp, cx = r | low, p & adj[v], x & adj[v]
        if cp == 0 and cx == 0:
            out.append(cr)
        else:
            stack.append([cr, cp, cx, pivot_candidates(cp, cx)])
    return out


def maximal_cliques(g):
    """All maximal cliques, canonical order."""
    return canonical_family(set_of_mask(m) for m in _cliques(adjacency_masks(g)))


def clique_number(g):
    """Exact ω(g); 0 for the empty graph."""
    return max((c.bit_count() for c in _cliques(adjacency_masks(g))), default=0)
