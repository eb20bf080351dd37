"""Graphs covered by (or intersected from) several threshold graphs.

A cover holds k creation sequences over one vertex set.  Union semantics
give the k-threshold enumerators (independent sets); intersection semantics
give maximal cliques.  Every maximal independent set of the union is the
intersection of one maximal set per member, so families from members are
combined by bitmask AND, one member at a time, keeping only the distinct
nonzero partial intersections that can still hold a maximal set.  Sets stay
masks until a family is listed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .graphs import (
    CapacityError,
    ContractError,
    bits,
    canonical_family,
    content_lines,
    graph_from_masks,
    is_maximal_independent,
    mask_of,
    parse_graph,
    set_of_mask,
)
from .threshold import (
    RecognitionFailure,
    complement_sequence,
    enumerate_is,
    mis_masks,
    parse_sequence,
    recognize_threshold,
    sequence_masks,
    serialize_sequence,
    split_partition,
)


class CoverFormatError(ValueError):
    """Malformed cover text."""


@dataclass(frozen=True)
class ThresholdCover:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ContractError("a cover needs at least one member")
        n0 = self.members[0].n
        if any(cs.n != n0 for cs in self.members):
            raise ContractError("cover members must share the vertex count")

    @property
    def k(self):
        return len(self.members)

    @property
    def n(self):
        return self.members[0].n

    @cached_property
    def union_masks(self):
        """Adjacency masks of the union: the OR of the members' sequence
        masks."""
        per = [sequence_masks(cs) for cs in self.members]
        return tuple(reduce(or_, col) for col in zip(*per))

    @cached_property
    def covered(self):
        return graph_from_masks(self.union_masks)

    @cached_property
    def intersected(self):
        per = [sequence_masks(cs) for cs in self.members]
        return graph_from_masks([reduce(and_, col) for col in zip(*per)])


def cover_from_sequences(seqs):
    return ThresholdCover(tuple(seqs))


def cover_from_graphs(graphs):
    members = []
    for i, g in enumerate(graphs, start=1):
        got = recognize_threshold(g)
        if isinstance(got, RecognitionFailure):
            raise ValueError(f"cover member {i} is not a threshold graph")
        members.append(got)
    return ThresholdCover(tuple(members))


def parse_cover(text):
    """`k <k>` then k blocks, each either a creation sequence (bits line plus
    optional `v` line) or a graph in the text format, recognized on load."""
    lines = list(content_lines(text))
    if not lines:
        raise CoverFormatError("empty cover text")
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "k":
        raise CoverFormatError(f"line {lineno}: expected `k <count>`, got {head!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise CoverFormatError(f"line {lineno}: non-integer member count") from None
    if k < 1:
        raise CoverFormatError(f"line {lineno}: member count must be >= 1")
    pos = 1
    members = []
    for i in range(1, k + 1):
        if pos >= len(lines):
            raise CoverFormatError(f"cover ends before member {i}")
        lineno, first = lines[pos]
        if first.split()[0] == "p":
            try:
                m_edges = int(first.split()[2])
            except (IndexError, ValueError):
                raise CoverFormatError(
                    f"line {lineno}: bad graph header in member {i}"
                ) from None
            block = [first] + [s for _, s in lines[pos + 1 : pos + 1 + m_edges]]
            pos += 1 + m_edges
            try:  # a malformed, oversized or empty graph
                got = recognize_threshold(parse_graph("\n".join(block)))
            except ValueError as e:
                raise CoverFormatError(f"member {i}: {e}") from None
            if isinstance(got, RecognitionFailure):
                raise CoverFormatError(f"member {i} is not a threshold graph")
            members.append(got)
        else:
            block = [first]
            pos += 1
            if pos < len(lines) and lines[pos][1].split()[0] == "v":
                block.append(lines[pos][1])
                pos += 1
            try:
                members.append(parse_sequence("\n".join(block)))
            except ValueError as e:
                raise CoverFormatError(f"member {i}: {e}") from None
    if pos != len(lines):
        raise CoverFormatError(f"line {lines[pos][0]}: trailing content after member {k}")
    try:
        return ThresholdCover(tuple(members))
    except ContractError as e:
        raise CoverFormatError(str(e)) from None


def format_cover(cover):
    out = [f"k {cover.k}\n"]
    for cs in cover.members:
        out.append(serialize_sequence(cs))
    return "".join(out)


# ---------------------------------------------------------------------------
# union-semantics enumerators


def _member_mis_masks(cover):
    return [mis_masks(cs) for cs in cover.members]


def _intersections(families):
    """Distinct nonzero intersections a1 & a2 & ... & ak, one ai per family,
    where each family is a member's `mis_masks`; all the maximal independent
    sets of the union are among them.  The families are taken one at a
    time, keeping the distinct nonzero partial intersections, but not all
    of them.  A member's maximal sets are M(i) = v(i) plus Z(i), the 0-bit
    vertices after the 1-bit position i, and Z(i) lies in Z(1).  So a
    partial p that misses v(i) has p & M(i) inside p & M(1), and p is met
    only with M(1) and the M(i) whose v(i) it holds.  A maximal set inside a
    skipped partial lies inside a kept one after every later member, and
    the last of those is independent, so it is that set."""
    partials = {-1}  # every bit set: the identity of AND
    for fam in families:
        first = fam[-1]  # M(1): `mis_masks` runs from the last 1-bit
        by_vertex = {(m & ~first).bit_length(): m for m in fam[:-1]}  # v(i) -> M(i)
        held = mask_of(by_vertex)
        kept = set()
        for p in partials:
            kept.add(p & first)
            kept.update(p & by_vertex[v] for v in bits(p & held))
        kept.discard(0)
        partials = kept
    return partials


def mis_masks_k(cover):
    """Maximal independent sets of the union as masks, in no particular
    order: the intersections that are maximal in the union, each tested by
    O(|set|) mask operations."""
    adj = cover.union_masks
    inters = _intersections(_member_mis_masks(cover))
    return [m for m in inters if is_maximal_independent(adj, m)]


def enumerate_mis_k(cover):
    """Maximal independent sets of the union, canonical order (see
    `mis_masks_k`)."""
    return canonical_family(set_of_mask(m) for m in mis_masks_k(cover))


def im_masks_k(cover):
    """Maximum independent sets as masks: the largest intersections.  Each
    intersection is independent in the union, and each maximum set is
    maximal, so it is one of them."""
    inters = _intersections(_member_mis_masks(cover))
    best = max((m.bit_count() for m in inters), default=0)
    return [m for m in inters if m.bit_count() == best]


def enumerate_im_k(cover):
    """Maximum independent sets, canonical order (see `im_masks_k`)."""
    return canonical_family(set_of_mask(m) for m in im_masks_k(cover))


def alpha_k(cover):
    """Independence number: the size of the largest intersection (see
    `im_masks_k`)."""
    inters = _intersections(_member_mis_masks(cover))
    return max((m.bit_count() for m in inters), default=0)


def enumerate_is_k(cover):
    """All nonempty independent sets of the union: the first member's sets,
    in canonical order, filtered by independence in the union."""
    if cover.n > 20:
        raise CapacityError(
            f"independent-set enumeration guarded at n <= 20, got {cover.n}"
        )
    adj = cover.union_masks
    fam = []
    for s in enumerate_is(cover.members[0]):
        m = mask_of(s)
        if not any(adj[v - 1] & m for v in s):
            fam.append(s)
    return fam


# ---------------------------------------------------------------------------
# intersection-semantics enumerators


def mc_masks_intersection(cover):
    """Maximal cliques of the intersection of the members as masks: the
    maximal independent sets of the union of their complements."""
    return mis_masks_k(
        ThresholdCover(tuple(complement_sequence(cs) for cs in cover.members))
    )


def enumerate_mc_intersection(cover):
    """Maximal cliques of the intersection, canonical order."""
    return canonical_family(set_of_mask(m) for m in mc_masks_intersection(cover))


def omega_intersection(cover):
    return max((m.bit_count() for m in mc_masks_intersection(cover)), default=0)


# ---------------------------------------------------------------------------
# the specialized 2-member algorithm


@dataclass(frozen=True)
class TwoThresholdPartition:
    """Vertex classes from clique-max split partitions (K1,S1), (K2,S2) of
    the two members: K = K1∩K2, S = S1∩S2, A = K1∩S2, B = S1∩K2."""

    K: tuple
    S: tuple
    A: tuple
    B: tuple


def two_threshold_partition(cover):
    if cover.k != 2:
        raise ContractError(f"two-member cover required, got k = {cover.k}")
    p1 = split_partition(cover.members[0], "clique-max")
    p2 = split_partition(cover.members[1], "clique-max")
    k1, s1 = mask_of(p1.K), mask_of(p1.S)
    k2, s2 = mask_of(p2.K), mask_of(p2.S)
    part = TwoThresholdPartition(
        set_of_mask(k1 & k2),
        set_of_mask(s1 & s2),
        set_of_mask(k1 & s2),
        set_of_mask(s1 & k2),
    )
    adj = cover.union_masks
    for grp in (part.K, part.A, part.B):
        gm = mask_of(grp)
        for v in grp:
            if (adj[v - 1] & gm) != gm & ~(1 << (v - 1)):
                raise ContractError(f"class of vertex {v} is not a clique of the union")
    sm = mask_of(part.S)
    for v in part.S:
        if adj[v - 1] & sm:
            raise ContractError(f"S is not independent in the union: vertex {v}")
    return part


def enumerate_mis_2t(cover):
    """Maximal independent sets of a 2-member cover via the four-class
    partition: emit candidate sets per class pattern (S alone; S plus one
    vertex without S-neighbors; S plus a nonadjacent A/B pair; shrunken
    variants through common non-neighborhoods), then keep the ones that
    pass the maximality test enumerate_mis_k uses.  Agrees with
    enumerate_mis_k.  On random relabelled 2-member covers (five per size,
    each timed as the median of five calls) the ratio of median times,
    enumerate_mis_k over this, was 0.95 to 1.03 at 70 and 100 vertices and
    1.19 to 1.30 at 200 to 400."""
    part = two_threshold_partition(cover)
    adj = cover.union_masks
    S = mask_of(part.S)

    def nbar(v):
        return S & ~adj[v - 1]

    def without_s_neighbors(mask):
        return mask_of(v for v in bits(mask) if not (adj[v - 1] & S))

    Km, Am, Bm = mask_of(part.K), mask_of(part.A), mask_of(part.B)
    Kp, Ap, Bp = map(without_s_neighbors, (Km, Am, Bm))

    emit = set()
    # sets avoiding all of K, A, B
    if not Kp and not Ap and not Bp:
        emit.add(S)
    # one vertex with no S-neighbor
    for v in bits(Kp):
        emit.add(S | 1 << (v - 1))
    if (not Ap) != (not Bp):
        for v in bits(Ap | Bp):
            emit.add(S | 1 << (v - 1))
    if Ap and Bp:
        for v1 in bits(Ap):
            b1 = 1 << (v1 - 1)
            if not (Bp & ~adj[v1 - 1]):  # adjacent to all of B'
                emit.add(S | b1)
            for v2 in bits(Bp & ~adj[v1 - 1]):
                emit.add(S | b1 | 1 << (v2 - 1))
        for v2 in bits(Bp):
            if not (Ap & ~adj[v2 - 1]):
                emit.add(S | 1 << (v2 - 1))
    # one vertex with S-neighbors, keeping its non-neighbors in S
    for v in bits(Km & ~Kp):
        emit.add(nbar(v) | 1 << (v - 1))
    An, Bn = Am & ~Ap, Bm & ~Bp
    if (not An) != (not Bn):
        for v in bits(An | Bn):
            emit.add(nbar(v) | 1 << (v - 1))
    # nonadjacent cross pairs where at least one side has S-neighbors
    for P, Q in ((An, Bn), (Ap, Bn), (An, Bp)):
        if P and Q:
            for v1 in bits(P):
                b1 = 1 << (v1 - 1)
                for v2 in bits(Q & ~adj[v1 - 1]):
                    emit.add((nbar(v1) & nbar(v2)) | b1 | 1 << (v2 - 1))
    # lone A-side (resp. B-side) vertex whose set no B-side vertex can join
    if An and Bn:
        for P, Q in ((An, Bn), (Bn, An)):
            for v1 in bits(P):
                ns1 = adj[v1 - 1] & S
                if all(adj[v2 - 1] & S & ~ns1 for v2 in bits(Q & ~adj[v1 - 1])):
                    emit.add(nbar(v1) | 1 << (v1 - 1))

    return canonical_family(
        set_of_mask(m) for m in emit if is_maximal_independent(adj, m)
    )
