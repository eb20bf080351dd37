"""Undirected simple graphs on vertices 1..n and the set machinery shared by
the rest of the library.

Vertices are 1-indexed integers.  Vertex sets travel as sorted tuples, set
families as lists of such tuples in canonical order (cardinality first, then
lexicographic).  A graph is its adjacency: one Python int bitmask per vertex
(bit v-1 stands for vertex v), which covers any n without a word-size split.
Its edge set is derived from the masks, only when it is read or printed.
`bits` is the one walk from a mask to its vertices; every loop over a
mask's members, and every vertex tuple made from a mask, goes through it.
The empty set is excluded from every family the library returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress, count
from operator import and_, or_


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


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable undirected simple graph: the vertex count and one adjacency
    mask per vertex, masks[v-1] holding bit u-1 iff {u, v} is an edge.

    `Graph(n, edges)` checks every edge, a pair (u, v) with 1 <= u < v <= n;
    `graph_from_masks` is the unchecked constructor.  Equality and hash go
    by (n, masks)."""

    n: int
    masks: tuple

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for e in edges:
            u, v = e
            if not (1 <= u < v <= n):
                raise GraphFormatError(f"edge {e} invalid for n={n}")
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        _fill(self, masks)

    @staticmethod
    def from_edges(n, edge_list):
        norm = []
        for u, v in edge_list:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexRangeError(f"edge ({u},{v}) outside 1..{n}")
            norm.append((u, v) if u < v else (v, u))
        return Graph(n, norm)

    @cached_property
    def edges(self):
        """frozenset of the (u, v) edges, u < v, built on first access."""
        return frozenset(_pairs(self.masks))

    @property
    def m(self):
        return sum(mask.bit_count() for mask in self.masks) // 2

    def has_edge(self, u, v):
        return 1 <= u <= self.n and 1 <= v <= self.n and bool(self.masks[u - 1] >> (v - 1) & 1)

    def degree(self, v):
        _check_set(self, (v,))
        return self.masks[v - 1].bit_count()

    def neighbors(self, v):
        _check_set(self, (v,))
        return set_of_mask(self.masks[v - 1])

    @property
    def vertices(self):
        return tuple(range(1, self.n + 1))


def _fill(g, masks):
    object.__setattr__(g, "n", len(masks))
    object.__setattr__(g, "masks", tuple(masks))
    return g


def graph_from_masks(masks):
    """The Graph with adjacency masks `masks` (masks[v-1] for vertex v),
    taken as given: they must be symmetric and loop-free."""
    return _fill(object.__new__(Graph), masks)


# maxsize=0 stores nothing and never hashes its argument; the wrapper only
# keeps cache_info() answering for perfbench's tracer (ROADMAP item 1).
@lru_cache(maxsize=0)
def adjacency_masks(g):
    """Per-vertex neighbor bitmasks; masks[v-1] has bit u-1 set iff {u,v} edge."""
    return g.masks


# '0' -> 0 and '1' -> 1: binary digits as selectors for compress
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask):
    """The vertices of the mask (bit v-1 for vertex v) in increasing order.

    A mask of k vertices and L binary digits is walked one of two ways: by
    C-level passes over its digits (`bin`, a reversing slice, `translate`,
    `compress`), or by clearing its lowest bit once per vertex, three
    big-int operations over L/30 machine digits each.  The second is taken
    while 16k < L + 128 and k < 256, near where the two costs cross."""
    k = mask.bit_count()
    if k < 256 and k << 4 < mask.bit_length() + 128:
        return _low_bits(mask)
    return compress(count(1), bin(mask)[:1:-1].encode().translate(_SELECTORS))


def _low_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _pairs(masks):
    """The edges (u, v), u < v, of the graph with adjacency masks `masks`,
    in lexicographic order."""
    for u, m in enumerate(masks, start=1):
        for k in bits(m >> u):  # bit k-1 of m >> u stands for vertex u + k
            yield u, u + k


def is_maximal_independent(adj, m):
    """Is the vertex mask m a maximal independent set of the graph with
    adjacency masks adj?  One pass over the members of m: their
    neighborhoods must miss m and, together with m, hold every vertex."""
    seen = 0
    for v in bits(m):
        seen |= adj[v - 1]
    return seen & m == 0 and seen | m == (1 << len(adj)) - 1


def mask_of(s):
    m = 0
    for v in s:
        m |= 1 << (v - 1)
    return m


def set_of_mask(m):
    # a list first, so the tuple is made at its exact size: tuple() of an
    # iterator over-allocates and then shrinks, and the slack showed as a
    # higher peak RSS on the cover enumerators
    return tuple([*bits(m)])


def _check_set(g, s):
    for v in s:
        if not (1 <= v <= g.n):
            raise VertexRangeError(f"vertex {v} outside 1..{g.n}")


def canonical_family(sets):
    """Deduplicate and sort a collection of vertex sets canonically."""
    uniq = {tuple(sorted(s)) for s in sets}
    uniq.discard(())
    return sorted(uniq, key=lambda t: (len(t), t))


def complement(g):
    full = (1 << g.n) - 1
    return graph_from_masks([full ^ m ^ (1 << i) for i, m in enumerate(g.masks)])


def is_independent_set(g, s):
    _check_set(g, s)
    m = mask_of(s)
    return all(g.masks[v - 1] & m == 0 for v in s)


def is_clique(g, s):
    _check_set(g, s)
    m = mask_of(s)
    # every member must see all the others
    return all(g.masks[v - 1] & m == m & ~(1 << (v - 1)) for v in s)


def _columns(gs):
    """Per vertex, the tuple of its masks in the graphs gs, which must share
    their vertex count."""
    gs = list(gs)
    if not gs:
        raise ShapeMismatchError("need at least one graph")
    n = gs[0].n
    for g in gs[1:]:
        if g.n != n:
            raise ShapeMismatchError(f"vertex counts differ: {g.n} vs {n}")
    return zip(*(g.masks for g in gs))


def union_graphs(gs):
    return graph_from_masks([reduce(or_, col) for col in _columns(gs)])


def intersect_graphs(gs):
    return graph_from_masks([reduce(and_, col) for col in _columns(gs)])


def induced_subgraph(g, s):
    """Subgraph on s with vertices relabeled 1..|s| in sorted order."""
    _check_set(g, s)
    verts = sorted(set(s))
    keep = mask_of(verts)
    index = {v: i for i, v in enumerate(verts, start=1)}
    return graph_from_masks(
        [mask_of(index[u] for u in bits(g.masks[v - 1] & keep)) for v in verts]
    )


def content_lines(text):
    """(line number, stripped line) for each line of the text formats that
    is neither blank nor a `#` comment; numbering counts every line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# the largest vertex count a graph file may declare: recognition keeps one
# bucket list per vertex, about 60 MB at this bound
MAX_VERTICES = 2**20


def _too_many(n):
    return f"{n} vertices exceed the limit of {MAX_VERTICES}"


def parse_graph(text):
    """Parse the text graph format: `p <n> <m>` then m lines `e <u> <v>`, u < v.

    Blank lines and lines starting with '#' are ignored.  Each edge line is
    checked once and ORed into the masks of its endpoints, which also
    catches a repeated line; the n-entry mask list is made only once every
    line has passed, so a huge header cannot outrun a later line's error.
    A vertex count above MAX_VERTICES raises CapacityError then, or at the
    first edge line naming a vertex above it, before anything of that size
    is allocated.
    """
    n = None
    m = None
    found = 0  # edge lines, repeats included
    adj = {}  # vertex -> mask of the neighbors seen so far
    repeated = False
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge must be `e <u> <v>`", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer edge endpoints", lineno) from None
            if not (1 <= u < v <= top):
                if 1 <= u < v <= n:
                    raise CapacityError(f"line {lineno}: {_too_many(n)}")
                raise GraphFormatError(
                    f"edge endpoints must satisfy 1 <= u < v <= {n}, got {u} {v}", lineno
                )
            found += 1
            bit = 1 << (v - 1)
            mask = adj.get(u, 0)
            if mask & bit:
                repeated = True
            adj[u] = mask | bit
            adj[v] = adj.get(v, 0) | 1 << (u - 1)
        elif parts[0] == "p":
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
            top = min(n, MAX_VERTICES)
        else:
            raise GraphFormatError(f"unknown record `{parts[0]}`", lineno)
    if n is None:
        raise GraphFormatError("missing `p <n> <m>` header")
    if m != found:
        raise GraphFormatError(f"header promises {m} edges, found {found}")
    if repeated:
        raise GraphFormatError("duplicate edge lines")
    if n > MAX_VERTICES:
        raise CapacityError(_too_many(n))
    masks = [0] * n
    for v, mask in adj.items():
        masks[v - 1] = mask
    return graph_from_masks(masks)


def format_graph(g):
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in _pairs(g.masks))
    return "\n".join(lines) + "\n"


def _cliques(adj, largest=False):
    """Masks of the maximal cliques of the graph with adjacency masks adj,
    by Bron-Kerbosch with pivoting.  The recursion runs on an explicit
    stack, so clique size is not bounded by the interpreter's recursion
    limit.  With `largest`, the walk is a branch and bound for one maximum
    clique: a frame is skipped once its clique r and candidates p together
    cannot beat the largest clique found so far, and only cliques larger
    than every earlier one are listed, so the last is a maximum clique."""
    out = []
    best = 0  # the largest clique listed so far

    def pivot_candidates(p, x):
        # pivot: the first vertex of p|x with most neighbors inside p
        pivot = max(bits(p | x), key=lambda v: (adj[v - 1] & p).bit_count())
        return p & ~adj[pivot - 1]

    # frames [r, p, x, candidates left]; a child call takes the lowest
    # candidate, after which the parent moves it from p to x
    stack = []
    if adj:
        full = (1 << len(adj)) - 1
        stack.append([0, full, 0, pivot_candidates(full, 0)])
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if not cand or largest and r.bit_count() + p.bit_count() <= best:
            stack.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        frame[1], frame[2], frame[3] = p ^ low, x | low, cand ^ low
        cr, cp, cx = r | low, p & adj[v], x & adj[v]
        if cp == 0 and cx == 0:
            if not largest or cr.bit_count() > best:
                out.append(cr)
                best = cr.bit_count()
        elif not largest or cr.bit_count() + cp.bit_count() > best:
            stack.append([cr, cp, cx, pivot_candidates(cp, cx)])
    return out


def maximal_cliques(g):
    """All maximal cliques, canonical order."""
    return canonical_family(set_of_mask(m) for m in _cliques(g.masks))


def clique_number(g):
    """Exact ω(g); 0 for the empty graph."""
    return max((c.bit_count() for c in _cliques(g.masks, largest=True)), default=0)
