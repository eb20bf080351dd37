"""Split graphs: recognition via the degree-sequence splittance test, with
a 2K2, C4 or C5 witness read off a chordless cycle on failure, partition
normalization along the classic trichotomy, and maximal independent set
enumeration driven by the clique side.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    ContractError,
    bits,
    canonical_family,
    is_maximal_independent,
    mask_of,
    set_of_mask,
)
from .threshold import RecognitionFailure, SplitPartition


@dataclass(frozen=True)
class NormalizedPartition:
    partition: SplitPartition
    case: int  # 1 unique, 2 a vertex moved from S into K, 3 K has a loner
    moved: int | None


def _split_witness(adj):
    """Induced 2K2, C4 or C5 of a graph that is not split.

    A graph is split exactly when it and its complement are chordal, so one
    of the two has a chordless cycle of length >= 4.  Maximum cardinality
    search (ties to the smallest index) finds it: at the first vertex v
    whose numbered neighbors miss an edge, take u, the one numbered last,
    and w, a numbered neighbor not adjacent to u; a shortest u-w path
    through numbered non-neighbors of v closes a chordless cycle with v
    (Tarjan & Yannakakis, SIAM J. Comput. 13, 1984).  In the graph, lengths
    4, 5 and >= 6 give a C4, a C5 and a 2K2 (positions 0, 1, 3, 4); in the
    complement the same lengths give a 2K2, a C5 and a C4.  O(n^2) mask
    operations.
    """
    n = len(adj)
    full = (1 << n) - 1
    complement = [full ^ mask ^ (1 << i) for i, mask in enumerate(adj)]
    for nbr, tags in ((adj, ("C4", "C5", "2K2")), (complement, ("2K2", "C5", "C4"))):
        count = [0] * n
        last = [0] * n  # the most recently numbered neighbor
        numbered = 0
        for _ in range(n):
            v = max(range(n), key=count.__getitem__)
            u = last[v]
            missed = nbr[v] & numbered & ~nbr[u] & ~(1 << u)
            if missed:
                w = (missed & -missed).bit_length() - 1
                # BFS layers from u through numbered non-neighbors of v
                allowed = numbered & ~nbr[v]
                layers = [1 << u]
                seen = 1 << u
                while True:
                    reach = 0
                    for x in bits(layers[-1]):
                        reach |= nbr[x - 1]
                    if reach >> w & 1:
                        break
                    layers.append(reach & allowed & ~seen)
                    seen |= layers[-1]
                path = [w]
                for layer in reversed(layers):
                    near = layer & nbr[path[-1]]
                    path.append((near & -near).bit_length() - 1)
                cycle = [v] + path[::-1]
                tag = tags[min(len(cycle), 6) - 4]
                if len(cycle) >= 6:
                    cycle = [cycle[i] for i in (0, 1, 3, 4)]
                return tuple(sorted(x + 1 for x in cycle)), tag
            count[v] = -1
            numbered |= 1 << v
            for x in bits(nbr[v] & ~numbered):
                count[x - 1] += 1
                last[x - 1] = v
    return None, None


def recognize_split(g, want_witness=False):
    """Split iff the splittance of the degree sequence is zero: with degrees
    d_1 >= ... >= d_n and m = max{i : d_i >= i-1}, the graph splits exactly
    when sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.  The top-m vertices then
    form the clique side."""
    adj = g.masks
    degs = sorted(
        ((mask.bit_count(), -v) for v, mask in enumerate(adj, start=1)), reverse=True
    )  # ties: smaller vertex index first
    m = 0
    for i, (d, _negv) in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    top = sum(d for d, _ in degs[:m])
    rest = sum(d for d, _ in degs[m:])
    if top != m * (m - 1) + rest:
        if want_witness:
            return RecognitionFailure(*_split_witness(adj))
        return RecognitionFailure()
    K = tuple(sorted(-negv for _, negv in degs[:m]))
    S = tuple(sorted(-negv for _, negv in degs[m:]))
    p = SplitPartition(K, S)
    _validate_partition(g, p)  # the criterion guarantees this; keep the guard
    return p


def _validate_partition(g, p):
    km = mask_of(p.K)
    sm = mask_of(p.S)
    if km & sm or (km | sm) != (1 << g.n) - 1:
        raise ContractError("K and S must partition the vertex set")
    adj = g.masks
    for v in p.K:
        if (adj[v - 1] & km) != km & ~(1 << (v - 1)):
            raise ContractError(f"K is not a clique: vertex {v}")
    for v in p.S:
        if adj[v - 1] & sm:
            raise ContractError(f"S is not independent: vertex {v}")


def normalize_partition(g, p):
    """Classify a valid split partition and return one with |K| = ω(G).

    Exactly one of three situations holds: some vertex of S is adjacent to
    all of K (case 2; the smallest such vertex is moved into K), some vertex
    of K has no neighbor in S (case 3; nothing moves), or neither (case 1,
    the partition is the unique one).  Moving in case 2 cannot create a new
    movable vertex, since K was one short of a maximum clique.
    """
    _validate_partition(g, p)
    adj = g.masks
    km = mask_of(p.K)
    movable = [x for x in p.S if (adj[x - 1] & km) == km]
    if movable:
        x = min(movable)
        newp = SplitPartition(
            tuple(sorted(p.K + (x,))), tuple(v for v in p.S if v != x)
        )
        return NormalizedPartition(newp, 2, x)
    sm = mask_of(p.S)
    loners = [y for y in p.K if not (adj[y - 1] & sm)]
    if loners:
        return NormalizedPartition(p, 3, None)
    return NormalizedPartition(p, 1, None)


def _require_normalized(g, p):
    _validate_partition(g, p)
    adj = g.masks
    km = mask_of(p.K)
    for x in p.S:
        if (adj[x - 1] & km) == km:
            raise ContractError(
                f"partition not normalized: vertex {x} of S is adjacent to all of K"
            )


def enumerate_mis_split(g, p):
    """Maximal independent sets of a split graph from a normalized partition:
    loners of K (no S-neighbor) each extend S; every other clique vertex v
    contributes its non-neighbors in S plus v; S itself appears only when K
    has no loner.  Emissions are guarded for maximality and deduplicated."""
    _require_normalized(g, p)
    adj = g.masks
    sm = mask_of(p.S)
    loners = [v for v in p.K if not (adj[v - 1] & sm)]
    out = []
    if not loners:
        out.append(sm)  # the family drops the empty set, so n=0 stays empty
    for v in p.K:
        vb = 1 << (v - 1)
        if not (adj[v - 1] & sm):
            out.append(sm | vb)
        else:
            out.append((sm & ~adj[v - 1]) | vb)
    return canonical_family(
        set_of_mask(m) for m in out if is_maximal_independent(adj, m)
    )


def count_mis_split(g, p):
    """|K| when some clique vertex misses S entirely, else |K| + 1."""
    _require_normalized(g, p)
    if g.n == 0:
        return 0
    adj = g.masks
    sm = mask_of(p.S)
    loners = any(not (adj[v - 1] & sm) for v in p.K)
    return len(p.K) + (0 if loners else 1)
